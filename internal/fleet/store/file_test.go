package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// refLoad is the reference for Open: the store's load before Open kept a
// line index — every line through DecodeRecord, a later line replacing an
// earlier one with the same key — with the same error text.
func refLoad(path string) ([]Record, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return []Record{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	defer f.Close()
	recs := map[string]Record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec, err := DecodeRecord(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("store: %s line %d: %w", path, line, err)
		}
		if rec.Key == "" {
			return nil, fmt.Errorf("store: %s line %d: record without key", path, line)
		}
		recs[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	out := make([]Record, 0, len(recs))
	for _, rec := range recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// refEncode is the reference for Flush: json.Marshal's line for each
// record, in the given (key) order.
func refEncode(t testing.TB, recs []Record) []byte {
	t.Helper()
	var b []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", rec, err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkStoreFile runs cells bytes through Open, Records, Get and Flush
// against refLoad and refEncode, alone or beside a leftover temp file of
// a rewrite killed before its rename, holding the first half of the same
// bytes. Open must ignore the temp file, and Flush must write refEncode's
// bytes.
func checkStoreFile(t *testing.T, cells []byte, leftover bool) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, CellsFile)
	if err := os.WriteFile(path, cells, 0o644); err != nil {
		t.Fatal(err)
	}
	if leftover {
		if err := os.WriteFile(path+".tmp-crash", cells[:len(cells)/2], 0o600); err != nil {
			t.Fatal(err)
		}
	}
	want, wantErr := refLoad(path)
	checkReadAll(t, dir, want, wantErr)
	s, err := Open(dir)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Open error %v, reference error %v, on %q", err, wantErr, cells)
	}
	if err != nil {
		return
	}
	defer s.Close()
	if got := s.Records(); !sameRecords(got, want) {
		t.Fatalf("Records differ from the reference on %q:\n got %+v\nwant %+v", cells, got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len %d, want %d", s.Len(), len(want))
	}
	for _, rec := range want {
		if got, ok := s.Get(rec.Key); !ok || !sameRecord(got, rec) {
			t.Fatalf("Get(%q) = %+v, %v; want %+v", rec.Key, got, ok, rec)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if canon := refEncode(t, want); !bytes.Equal(out, canon) {
		t.Fatalf("Flush wrote\n%q\nwant\n%q", out, canon)
	}
	if got := s.Records(); !sameRecords(got, want) {
		t.Fatalf("Records after Flush differ:\n got %+v\nwant %+v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// checkReadAll holds ReadAll, which decodes in Open's read, to the
// reference records and error, and requires it to release the lock.
func checkReadAll(t *testing.T, dir string, want []Record, wantErr error) {
	t.Helper()
	got, err := ReadAll(dir)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ReadAll error %v, reference error %v", err, wantErr)
	}
	if err == nil && !sameRecords(got, want) {
		t.Fatalf("ReadAll records differ from the reference:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, LockFile)); !os.IsNotExist(err) {
		t.Fatalf("ReadAll left %s behind (stat: %v)", LockFile, err)
	}
}

// storeFileSeeds are cells files aimed at Open's line index: flushed
// stores, line-end and blank-line variants, duplicate and out-of-order
// keys, lines in other byte forms, and corrupt or keyless lines.
func storeFileSeeds(t testing.TB) map[string][]byte {
	recs := []Record{testRecord(3), testRecord(1), testRecord(2)}
	unsorted := refEncode(t, recs)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	flushed := refEncode(t, recs)
	lines := strings.SplitAfter(string(unsorted), "\n")[:3]
	canon, set := canonicalLine(t)
	full, _ := json.Marshal(fullRecord())
	other := fullRecord()
	other.EnergyJ = 99
	otherLine, _ := json.Marshal(other)
	// Three passes over 16 records, each pass changing every record: a
	// reader must keep each key's last line, past the sizes a sort handles
	// by insertion.
	var rewrites []Record
	for pass := range 3 {
		for seed := range 16 {
			rec := testRecord(int64(seed))
			rec.EnergyJ = float64(pass)
			rewrites = append(rewrites, rec)
		}
	}
	seeds := map[string][]byte{
		"empty":              {},
		"rewritten-3x":       refEncode(t, rewrites),
		"newline":            []byte("\n"),
		"flushed":            flushed,
		"unsorted":           unsorted,
		"crlf":               []byte(strings.ReplaceAll(string(flushed), "\n", "\r\n")),
		"blank-lines":        []byte("\n\n" + lines[0] + "\n" + lines[1] + "\r\n\n" + lines[2]),
		"no-final-newline":   []byte(strings.TrimSuffix(string(flushed), "\n")),
		"duplicate":          []byte(lines[0] + lines[0]),
		"duplicate-changed":  []byte(canon + "\n" + string(otherLine) + "\n"),
		"canonical-then-odd": []byte(canon + "\n" + strings.ReplaceAll(string(otherLine), `":`, `": `) + "\n"),
		"odd-then-canonical": []byte(strings.ReplaceAll(string(otherLine), `":`, `": `) + "\n" + canon + "\n"),
		"hand-edited-float":  append(set("avg_fps", "0.10000000000000001"), '\n'),
		"long-float":         append(set("energy_j", "1.50000000000000000000000000000"), '\n'),
		"upper-exponent":     append(set("energy_j", "15E-1"), '\n'),
		"float-overflow":     append(set("energy_j", "1e400"), '\n'),
		"int-overflow":       append(set("seed", "9223372036854775808"), '\n'),
		"escaped-string":     append(set("platform", `"a\u0026b"`), '\n'),
		"escaped-key":        []byte(`{"key":"\u0026"}` + "\n" + canon + "\n"),
		"keyless":            []byte(`{"energy_j":1}` + "\n"),
		"empty-key":          append(set("key", `""`), '\n'),
		"corrupt-second":     append(append(full, '\n'), "not json\n"...),
		"truncated-last":     append(append(full, '\n'), full[:len(full)/2]...),
	}
	return seeds
}

// TestStoreFileLineLimit: a line over the 4 MiB limit fails Open as it
// fails the reference load. (The fuzz seeds below cover everything else.)
func TestStoreFileLineLimit(t *testing.T) {
	cells := append(bytes.Repeat([]byte("x"), 4*1024*1024+1), '\n')
	for _, leftover := range []bool{false, true} {
		checkStoreFile(t, cells, leftover)
	}
}

// FuzzStoreFile feeds arbitrary bytes in as a cells file, alone and
// beside a leftover temp file, and holds Open, Records, Get and Flush to
// the reference load and encode.
func FuzzStoreFile(f *testing.F) {
	for _, cells := range storeFileSeeds(f) {
		f.Add(cells, false)
		f.Add(cells, true)
	}
	f.Fuzz(func(t *testing.T, cells []byte, leftover bool) {
		checkStoreFile(t, cells, leftover)
	})
}

// TestHandEditedLineNormalized: a rewrite re-encodes a hand-edited line
// the way json.Marshal writes it — 0.10000000000000001 is the float64 0.1
// and goes back as 0.1.
func TestHandEditedLineNormalized(t *testing.T) {
	dir := t.TempDir()
	rec := fullRecord()
	rec.AvgFPS = 0.1
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(rec)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CellsFile)
	flushed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(flushed, []byte(`"avg_fps":0.1,`), []byte(`"avg_fps":0.10000000000000001,`), 1)
	if bytes.Equal(edited, flushed) {
		t.Fatalf("flushed line lacks avg_fps 0.1: %s", flushed)
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(rec.Key); !ok || got != rec {
		t.Errorf("Get after the edit: %+v, %v", got, ok)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flushed) {
		t.Errorf("Flush after a hand edit wrote\n%s\nwant\n%s", got, flushed)
	}
}

// TestFlushRefusesChangedFile: a cells file overwritten by another
// process while the lock was held fails Flush, which leaves that file
// alone, and Close reports the failure too.
func TestFlushRefusesChangedFile(t *testing.T) {
	for _, name := range []string{"same-length", "shorter"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Put(testRecord(1))
			s.Put(testRecord(2))
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, CellsFile)
			flushed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			foreign := flushed[:len(flushed)/2]
			if name == "same-length" {
				foreign = bytes.Replace(flushed, []byte(`"energy_j":11.5`), []byte(`"energy_j":11.6`), 1)
			}
			if err := os.WriteFile(path, foreign, 0o644); err != nil {
				t.Fatal(err)
			}
			s.Put(testRecord(3))
			if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "changed since Open") {
				t.Fatalf("Flush over a changed file: %v", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, foreign) {
				t.Errorf("failed Flush rewrote the file:\n%s", got)
			}
			if err := s.Close(); err == nil || !strings.Contains(err.Error(), "changed since Open") {
				t.Errorf("Close after a failed read: %v", err)
			}
		})
	}
}

// legacySum is the sum file older builds kept beside the cells file:
// the CRC-32C and length of the file their last rewrite wrote. The store
// neither reads nor writes it.
const legacySum = "cells.jsonl.sum"

// legacySumOf is the content an older build's sum file had for cells
// bytes b.
func legacySumOf(b []byte) []byte {
	return fmt.Appendf(nil, "crc32c %08x %d\n", crc32.Checksum(b, castagnoli), len(b))
}

// TestSumCrashStates: a crash of an older build can leave the old or the
// new cells file beside that build's sum file, which matches it, matches
// the other one, is missing or is torn, with or without the leftover temp
// files of a killed rewrite. In every state Open returns exactly one
// flushed record set, the next Flush writes that set's canonical bytes,
// and the sum file stays as it was: the store ignores it.
func TestSumCrashStates(t *testing.T) {
	type flushed struct {
		recs        []Record
		cells, sums []byte
	}
	flush := func(seeds ...int64) flushed {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			s.Put(crashRecord(int(seed)))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		recs := s.Records()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		cells, err := os.ReadFile(filepath.Join(dir, CellsFile))
		if err != nil {
			t.Fatal(err)
		}
		return flushed{recs, cells, legacySumOf(cells)}
	}
	versions := map[string]flushed{"old": flush(1, 2, 3), "new": flush(1, 2, 3, 4, 5)}
	other := map[string]string{"old": "new", "new": "old"}
	for _, cells := range []string{"old", "new"} {
		for _, sum := range []string{"matching", "stale", "missing", "torn"} {
			for _, leftover := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/tmp=%v", cells, sum, leftover), func(t *testing.T) {
					v := versions[cells]
					dir := t.TempDir()
					write := func(name string, b []byte) {
						t.Helper()
						if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					write(CellsFile, v.cells)
					var sums []byte
					switch sum {
					case "matching":
						sums = v.sums
					case "stale":
						sums = versions[other[cells]].sums
					case "torn":
						sums = v.sums[:len(v.sums)-3]
					}
					if sums != nil {
						write(legacySum, sums)
					}
					if leftover {
						n := versions["new"]
						write(CellsFile+".tmp-crash", n.cells[:len(n.cells)*2/3])
						write(legacySum+".tmp-crash", n.sums[:len(n.sums)/2])
					}
					s, err := Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if got := s.Records(); !sameRecords(got, v.recs) {
						t.Fatalf("Open returned %d records, want the %s set of %d", len(got), cells, len(v.recs))
					}
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(filepath.Join(dir, CellsFile))
					if err != nil {
						t.Fatal(err)
					}
					if want := refEncode(t, v.recs); !bytes.Equal(got, want) {
						t.Errorf("Flush wrote\n%s\nwant\n%s", got, want)
					}
					if got, _ := os.ReadFile(filepath.Join(dir, legacySum)); !bytes.Equal(got, sums) {
						t.Errorf("sum file %q after Flush, want it left as %q", got, sums)
					}
				})
			}
		}
	}
}
