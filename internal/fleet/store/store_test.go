package store

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testRecord(seed int64) Record {
	id := Identity{
		Platform:   "Nexus 5",
		Policy:     "mobicore",
		Workload:   "busyloop-50%x4",
		Placer:     "greedy",
		Seed:       seed,
		DurationNS: int64(30 * time.Second),
		TickNS:     int64(time.Millisecond),
		SampleNS:   int64(50 * time.Millisecond),
	}
	return Record{
		Key:       id.Key(),
		Identity:  id,
		Finished:  true,
		EnergyJ:   10.5 + float64(seed),
		AvgPowerW: 0.35,
	}
}

func TestIdentityKeyStableAndDistinct(t *testing.T) {
	a := testRecord(1).Identity
	if a.Key() != a.Key() {
		t.Error("key not deterministic")
	}
	if len(a.Key()) != 32 {
		t.Errorf("key %q not 32 hex chars", a.Key())
	}
	// Every field participates in the hash.
	variants := []Identity{a, a, a, a, a, a, a, a, a}
	variants[1].Platform = "Nexus 6P"
	variants[2].Policy = "android-default"
	variants[3].Workload = "busyloop-30%x4"
	variants[4].Placer = "eas"
	variants[5].Seed = 2
	variants[6].DurationNS++
	variants[7].UntilDone = true
	variants[8].TickNS++
	seen := map[string]int{}
	for i, v := range variants[1:] {
		seen[v.Key()]++
		if v.Key() == a.Key() {
			t.Errorf("variant %d hashes like the original", i+1)
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("key %s produced by %d distinct identities", k, n)
		}
	}
	// Field-boundary confusion: moving a byte across the separator must
	// change the hash.
	b := a
	b.Platform, b.Policy = "Nexus 5m", "obicore"
	if b.Key() == a.Key() {
		t.Error("field boundary not separated in the hash")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("fresh store has %d records", s.Len())
	}
	for seed := int64(3); seed >= 1; seed-- { // insert out of order
		s.Put(testRecord(seed))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reloaded %d records, want 3", re.Len())
	}
	want := testRecord(2)
	got, ok := re.Get(want.Key)
	if !ok || got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
}

// TestFlushDeterministic: the file bytes depend only on the record set —
// insertion order and flush count never show through.
func TestFlushDeterministic(t *testing.T) {
	write := func(order []int64) []byte {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, seed := range order {
			s.Put(testRecord(seed))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil { // double flush must be idempotent
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, CellsFile))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := write([]int64{1, 2, 3, 4})
	b := write([]int64{4, 2, 1, 3})
	if !bytes.Equal(a, b) {
		t.Error("flush bytes depend on insertion order")
	}
}

// TestIncrementalMergeMatchesCold: filling a store in two invocations
// produces the same bytes as one cold pass once compacted — the property
// resume rides on. The second Flush appends to the log.
func TestIncrementalMergeMatchesCold(t *testing.T) {
	cold := t.TempDir()
	s, err := Open(cold)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seed := int64(1); seed <= 4; seed++ {
		s.Put(testRecord(seed))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	warm := t.TempDir()
	first, err := Open(warm)
	if err != nil {
		t.Fatal(err)
	}
	first.Put(testRecord(2))
	first.Put(testRecord(4))
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := Open(warm) // reload the partial store
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.Put(testRecord(1))
	second.Put(testRecord(3))
	if err := second.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := second.Compact(); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(filepath.Join(cold, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(warm, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two-invocation store differs from cold store")
	}
}

func TestOpenRejectsCorruptLine(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CellsFile), []byte("{\"key\":\"ab\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("corrupt line not rejected with position: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, CellsFile), []byte("{\"energy_j\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("keyless record accepted")
	}
}

// TestWriteCSV: the header and Records' rows through AppendCSV make a
// CSV export in key order whose rows are as wide as the header.
func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(testRecord(2))
	s.Put(testRecord(1))
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(CSVHeader()); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	var rows []byte
	for _, rec := range s.Records() {
		rows = rec.AppendCSV(rows)
	}
	buf.Write(rows)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if got, want := lines[0], strings.Join(CSVHeader(), ","); got != want {
		t.Errorf("header = %q, want %q", got, want)
	}
	if len(strings.Split(lines[1], ",")) != len(CSVHeader()) {
		t.Errorf("row width != header width: %q", lines[1])
	}
	// Rows are key-sorted like the JSONL.
	keys := s.Keys()
	if !strings.HasPrefix(lines[1], keys[0]) || !strings.HasPrefix(lines[2], keys[1]) {
		t.Errorf("csv rows not in key order:\n%s", buf.String())
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("encoding/csv read %d records back, want 3", len(recs))
	}
}

// TestLockExcludesSecondWriter: a held store refuses a second Open with a
// clear error (the silent-last-rename-wins hazard), and Close releases it.
func TestLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "held by another writer") {
		t.Errorf("second writer not refused clearly: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	re.Close()
	// A failed Open (corrupt store) must not leave the lock behind.
	if err := os.WriteFile(filepath.Join(dir, CellsFile), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt store opened")
	}
	if _, err := os.Stat(filepath.Join(dir, LockFile)); !os.IsNotExist(err) {
		t.Error("failed Open leaked the lock file")
	}
}

func TestPutChecked(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := testRecord(1)
	if added, err := s.PutChecked(rec); err != nil || !added {
		t.Fatalf("first put: added=%v err=%v", added, err)
	}
	if added, err := s.PutChecked(rec); err != nil || added {
		t.Fatalf("identical re-put: added=%v err=%v", added, err)
	}
	conflicting := rec
	conflicting.EnergyJ += 1
	if _, err := s.PutChecked(conflicting); err == nil {
		t.Error("conflicting record for the same key accepted")
	}
}

// TestMerge: disjoint shard stores merge into bytes identical to a single
// store that held every record, overlap with identical records is
// tolerated, and a conflicting record fails the whole merge.
func TestMerge(t *testing.T) {
	writeStore := func(dir string, seeds ...int64) {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, seed := range seeds {
			s.Put(testRecord(seed))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	whole := t.TempDir()
	writeStore(whole, 1, 2, 3, 4, 5)
	shardA, shardB := t.TempDir(), t.TempDir()
	writeStore(shardA, 2, 4)
	writeStore(shardB, 1, 3, 5)

	merged := t.TempDir()
	added, err := Merge(merged, shardA, shardB)
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 {
		t.Errorf("merge added %d records, want 5", added)
	}
	want, err := os.ReadFile(filepath.Join(whole, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(merged, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merged shards differ from the single-store bytes")
	}

	// Overlapping identical records are idempotent.
	if added, err := Merge(merged, shardA); err != nil || added != 0 {
		t.Errorf("idempotent re-merge: added=%d err=%v", added, err)
	}

	// A conflicting record for a shared key fails loudly.
	conflictDir := t.TempDir()
	c, err := Open(conflictDir)
	if err != nil {
		t.Fatal(err)
	}
	bad := testRecord(2)
	bad.EnergyJ *= 2
	c.Put(bad)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(merged, conflictDir); err == nil || !strings.Contains(err.Error(), "conflicting records") {
		t.Errorf("conflicting merge not refused: %v", err)
	}

	// Merging a store into itself is refused.
	if _, err := Merge(merged, merged); err == nil {
		t.Error("self-merge accepted")
	}
	if _, err := Merge(merged); err == nil {
		t.Error("merge with no sources accepted")
	}
}

// TestStaleTempFileIgnored: a Flush killed between writing its temp file
// and the rename leaves the previous cells file in place plus a stale
// cells.jsonl.tmp-* file. The stale file must change neither what Open
// loads nor what the next Flush writes.
func TestStaleTempFileIgnored(t *testing.T) {
	fill := func(dir string, seeds ...int64) {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, seed := range seeds {
			s.Put(testRecord(seed))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	clean, crashed := t.TempDir(), t.TempDir()
	fill(clean, 1, 2)
	fill(crashed, 1, 2)
	// The killed flush had written the old records, a new one, and half
	// of another.
	old, err := os.ReadFile(filepath.Join(crashed, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(3)
	line, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	partial := append(append(old, line...), "\n"...)
	partial = append(partial, line[:len(line)/2]...)
	if err := os.WriteFile(filepath.Join(crashed, CellsFile+".tmp-4242"), partial, 0o600); err != nil {
		t.Fatal(err)
	}

	s, err := Open(crashed)
	if err != nil {
		t.Fatalf("Open with a stale temp file: %v", err)
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Open loaded %d records, want the 2 flushed ones", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fill(clean, 4)
	fill(crashed, 4)
	want, err := os.ReadFile(filepath.Join(clean, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(crashed, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flush after a stale temp file differs from a clean store's:\n got %s\nwant %s", got, want)
	}
}
