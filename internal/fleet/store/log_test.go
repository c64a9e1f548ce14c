package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refLoadLog is the reference for Open's log pass over the records of a
// cells file. Each line of the log is a frame — the CRC-32C of a record
// line as 8 hex digits, a space, the line — whose record, by DecodeRecord,
// replaces any earlier one with its key. A last line that is unterminated,
// malformed or fails its CRC is dropped; any earlier such line is an
// error. It returns the records sorted by key and the length of the log
// the kept frames span.
func refLoadLog(recs []Record, path string, log []byte) ([]Record, int, error) {
	byKey := map[string]Record{}
	for _, rec := range recs {
		byKey[rec.Key] = rec
	}
	lines := strings.SplitAfter(string(log), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	kept := 0
	for i, l := range lines {
		body, terminated := strings.CutSuffix(l, "\n")
		ok := terminated && len(body) >= 9 && body[8] == ' '
		if ok {
			sum, err := strconv.ParseUint(body[:8], 16, 32)
			ok = err == nil && uint32(sum) == crc32.Checksum([]byte(body[9:]), castagnoli)
		}
		if !ok {
			if i == len(lines)-1 {
				break
			}
			return nil, 0, fmt.Errorf("store: %s line %d: frame fails its CRC-32C check and is not the last", path, i+1)
		}
		rec, err := DecodeRecord([]byte(body[9:]))
		if err != nil {
			return nil, 0, fmt.Errorf("store: %s line %d: %w", path, i+1, err)
		}
		if rec.Key == "" {
			return nil, 0, fmt.Errorf("store: %s line %d: record without key", path, i+1)
		}
		byKey[rec.Key] = rec
		kept += len(l)
	}
	return sortedRecords(byKey), kept, nil
}

// sortedSet returns recs sorted by key, a later record replacing an
// earlier one with its key.
func sortedSet(recs []Record) []Record {
	byKey := map[string]Record{}
	for _, rec := range recs {
		byKey[rec.Key] = rec
	}
	return sortedRecords(byKey)
}

func sortedRecords(byKey map[string]Record) []Record {
	out := make([]Record, 0, len(byKey))
	for _, rec := range byKey {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// frame is a log frame holding line, built independently of appendFrame.
func frame(line string) string {
	return fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(line), castagnoli), line)
}

// writeFlushed writes recs into a fresh store in dir through Compact and
// returns them sorted by key.
func writeFlushed(t testing.TB, dir string, recs []Record) []Record {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		s.Put(rec)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	out := s.Records()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkStoreLog puts the first n%4 test records in a flushed cells file
// beside arbitrary log bytes and holds Open, Records, Get, a Flush of one
// more record and Compact to refLoadLog and refEncode: Open loads every
// valid frame and truncates only a bad last line away, and Compact writes
// the canonical bytes of everything loaded and removes the log.
func checkStoreLog(t *testing.T, n uint8, log []byte) {
	t.Helper()
	dir := t.TempDir()
	var base []Record
	for i := range int(n % 4) {
		base = append(base, testRecord(int64(i+1)))
	}
	main := writeFlushed(t, dir, base)
	logPath := filepath.Join(dir, LogFile)
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	want, kept, wantErr := refLoadLog(main, logPath, log)
	// ReadAll truncates a torn last frame as Open does, so Open then
	// finds the log already cut to its valid frames.
	checkReadAll(t, dir, want, wantErr)
	s, err := Open(dir)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Open error %v, reference error %v, on log %q", err, wantErr, log)
	}
	if err != nil {
		if got, _ := os.ReadFile(logPath); !bytes.Equal(got, log) {
			t.Fatalf("a failed Open changed the log to %q", got)
		}
		return
	}
	defer s.Close()
	if got, _ := os.ReadFile(logPath); !bytes.Equal(got, log[:kept]) {
		t.Fatalf("Open left the log %q, want its valid frames %q", got, log[:kept])
	}
	if got := s.Records(); !sameRecords(got, want) {
		t.Fatalf("Records differ from the reference on log %q:\n got %+v\nwant %+v", log, got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len %d, want %d", s.Len(), len(want))
	}
	for _, rec := range want {
		if got, ok := s.Get(rec.Key); !ok || !sameRecord(got, rec) {
			t.Fatalf("Get(%q) = %+v, %v; want %+v", rec.Key, got, ok, rec)
		}
	}

	// A Flush after the truncation appends or rewrites; either way a
	// fresh Open finds the record beside the loaded ones.
	extra := testRecord(99)
	s.Put(extra)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want = sortedSet(append(want, extra))
	if s, err = Open(dir); err != nil {
		t.Fatalf("Open after Flush: %v", err)
	}
	defer s.Close()
	if got := s.Records(); !sameRecords(got, want) {
		t.Fatalf("Records after Flush and Open:\n got %+v\nwant %+v", got, want)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, CellsFile)); err != nil || !bytes.Equal(got, refEncode(t, want)) {
		t.Fatalf("Compact wrote\n%q\nwant\n%q (%v)", got, refEncode(t, want), err)
	}
	if _, err := os.Stat(logPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Compact left the log: %v", err)
	}
}

// storeLogSeeds are logs aimed at Open's frame checks: valid frames of new
// records, of records the cells file holds (a crash between a rewrite and
// the log's removal) and of changed records, torn and CRC-bad last lines,
// bad lines before good ones, and framed lines that are not canonical or
// not records.
func storeLogSeeds(t testing.TB) map[string][]byte {
	line := func(rec Record) string {
		b, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := frame(line(testRecord(7))), frame(line(testRecord(8)))
	changed := testRecord(1)
	changed.EnergyJ = 42
	bad := strings.Replace(a, `"finished":true`, `"finished":false`, 1)
	return map[string][]byte{
		"empty":           {},
		"new":             []byte(a + b),
		"repeats-main":    []byte(frame(line(testRecord(1))) + frame(line(testRecord(2)))),
		"changed":         []byte(frame(line(testRecord(1))) + frame(line(changed))),
		"torn-tail":       []byte(a + b[:len(b)/2]),
		"torn-header":     []byte(a + b[:5]),
		"unterminated":    []byte(a + strings.TrimSuffix(b, "\n")),
		"bad-crc-last":    []byte(a + bad),
		"bad-crc-middle":  []byte(bad + a),
		"blank-last":      []byte(a + "\n"),
		"blank-middle":    []byte("\n" + a),
		"upper-hex":       []byte(strings.ToUpper(a[:8]) + a[8:]),
		"crlf":            []byte(frame(line(testRecord(7))+"\r") + b),
		"spaced-json":     []byte(frame(strings.ReplaceAll(line(testRecord(7)), `":`, `": `))),
		"escaped-key":     []byte(frame(`{"key":"\u0026"}`) + a),
		"keyless":         []byte(frame(`{"energy_j":1}`) + a),
		"not-json":        []byte(frame("not json") + a),
		"not-json-last":   []byte(a + frame("not json")),
		"no-space":        []byte(strings.Replace(a, " ", "-", 1) + b),
		"short-line-last": []byte(a + "abc\n"),
	}
}

// FuzzStoreLog feeds arbitrary bytes in as the log beside a flushed cells
// file and holds Open, Records, Get, Flush and Compact to the reference
// loader and encoder.
func FuzzStoreLog(f *testing.F) {
	for _, log := range storeLogSeeds(f) {
		f.Add(uint8(0), log)
		f.Add(uint8(2), log)
	}
	f.Fuzz(func(t *testing.T, n uint8, log []byte) {
		checkStoreLog(t, n, log)
	})
}

// TestFlushAppendsThenCompacts: the key rule. Each Flush of a new record
// into a store with a cells file appends it to the log and leaves the
// cells file alone. A Flush rewrites the cells file to the canonical
// bytes and removes the log when there is no cells file yet, when a Put
// replaced a record the files hold, and after a failed append.
func TestFlushAppendsThenCompacts(t *testing.T) {
	dir := t.TempDir()
	recs := benchRecords(62)
	path, logPath := filepath.Join(dir, CellsFile), filepath.Join(dir, LogFile)
	reopen := func() *Store {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	flush := func(s *Store) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cells := func() []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rewrote := func(why string, want []Record) {
		t.Helper()
		if !bytes.Equal(cells(), refEncode(t, sortedSet(want))) {
			t.Fatalf("the Flush %s did not write the canonical bytes of its %d records", why, len(want))
		}
		if _, err := os.Stat(logPath); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("the Flush %s left the log: %v", why, err)
		}
	}

	s := reopen()
	for _, rec := range recs[:20] {
		s.Put(rec)
	}
	flush(s)
	rewrote("without a cells file", recs[:20])

	before := cells()
	for i := 20; i < 60; i++ {
		s := reopen()
		s.Put(recs[i])
		flush(s)
		if !bytes.Equal(cells(), before) {
			t.Fatalf("the Flush of new record %d rewrote the cells file", i+1)
		}
		if fi, err := os.Stat(logPath); err != nil || fi.Size() == 0 {
			t.Fatalf("the Flush of new record %d left no log (%v)", i+1, err)
		}
	}

	s = reopen()
	s.Put(recs[30]) // held as a log frame
	flush(s)
	rewrote("after a re-Put", recs[:60])

	s = reopen()
	s.Put(recs[60])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A read-only log handle fails the next append, as a full disk would.
	ro, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s.log.Close()
	s.log = ro
	s.Put(recs[61])
	if err := s.Flush(); err == nil {
		t.Fatal("an append to a read-only log succeeded")
	}
	flush(s)
	rewrote("after a failed append", recs)
}

// TestShardPassWriteVolume counts the bytes a study of 3000 records
// written as 32 sequential key-range shards into one store puts on disk —
// every rewritten cells file whole, and every log append — with the last
// shard compacting, as fleet.Run does once the store holds the whole
// matrix. Rewriting the cells file on every Flush wrote about 16× the
// final file; appending every new record writes the first shard, the log
// and the final rewrite, just under 2×.
func TestShardPassWriteVolume(t *testing.T) {
	const shards = 32
	recs := benchRecords(3000)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	dir := t.TempDir()
	cellsPath, logPath := filepath.Join(dir, CellsFile), filepath.Join(dir, LogFile)
	var (
		written, logSize int64
		cells            os.FileInfo
		rewrites         int
	)
	for sh := range shards {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[sh*len(recs)/shards : (sh+1)*len(recs)/shards] {
			s.Put(rec)
		}
		flush := s.Flush
		if sh == shards-1 {
			flush = s.Compact
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(cellsPath)
		if err != nil {
			t.Fatal(err)
		}
		if cells == nil || !os.SameFile(cells, fi) { // a rewrite renames a new file in
			written += fi.Size()
			rewrites++
			logSize = 0
		}
		cells = fi
		if lfi, err := os.Stat(logPath); err == nil {
			written += lfi.Size() - logSize
			logSize = lfi.Size()
		}
	}
	final := cells.Size()
	ratio := float64(written) / float64(final)
	t.Logf("%d shards: %d bytes written (%d rewrites) for a %d-byte cells file: %.2f×", shards, written, rewrites, final, ratio)
	if ratio > 2.2 {
		t.Errorf("a %d-shard pass wrote %.2f× its final cells file, want at most 2.2×", shards, ratio)
	}
}
