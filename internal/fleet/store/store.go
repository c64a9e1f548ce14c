// Package store is the fleet driver's persistent result store: one JSONL
// record per completed cell, keyed by a canonical identity hash, so sweeps
// compose across sequential invocations. A re-run of the same Spec loads
// its cached cells from the store and executes only the missing ones; the
// merged store is rewritten sorted by key, so the file's bytes depend only
// on which cells exist — never on execution order, parallelism, or how
// many invocations it took to fill the matrix.
//
// Each line is byte-for-byte encoding/json's encoding of a Record. The
// package writes and parses that form itself, without reflection (see
// codec.go); a record or line outside it falls back to encoding/json, so
// what the store accepts, rejects and returns is what encoding/json would.
//
// The store assumes one writer at a time: Flush is load-at-Open, merge in
// memory, rewrite whole file. Open enforces that with a lock file
// (created O_CREATE|O_EXCL, removed by Close): a second process opening a
// held store fails with a clear error instead of silently dropping the
// first one's records on the last rename. Sharding a sweep across
// processes uses disjoint store directories — one per shard — combined
// afterwards with Merge, which refuses conflicting records for the same
// key.
//
// Flush writes a temp file, fsyncs it, renames it over the cells file and
// fsyncs the directory. A reader therefore sees the previous complete file
// or the new one, never a partial one; and once Flush returns, the new
// file survives a crash or power loss, as far as the file system honours
// fsync and atomic rename. A crash during Flush leaves the previous file
// in place plus a stale cells.jsonl.tmp-* file, which Open ignores.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// CellsFile is the name of the per-cell JSONL file inside a store
// directory.
const CellsFile = "cells.jsonl"

// LockFile is the name of the single-writer lock file inside a store
// directory. It exists exactly while some process holds the store open.
const LockFile = "store.lock"

// Identity is the canonical coordinate of one fleet cell — everything that
// selects a deterministic session. Two cells with equal identities run the
// same physics, so their records are interchangeable. Engine defaults are
// canonicalized by the caller (empty placer → "greedy", zero tick → 1 ms,
// zero sample period → 50 ms) so a spec spelled with defaults and one
// spelled explicitly hash identically. Workload names must encode their
// parameters ("busyloop-50%x4"), as the store cannot hash a factory.
type Identity struct {
	Platform   string `json:"platform"`
	Policy     string `json:"policy"`
	Workload   string `json:"workload"`
	Placer     string `json:"placer"`
	Seed       int64  `json:"seed"`
	DurationNS int64  `json:"duration_ns"`
	UntilDone  bool   `json:"until_done,omitempty"`
	TickNS     int64  `json:"tick_ns"`
	SampleNS   int64  `json:"sample_ns"`
}

// Key returns the cell's identity hash: the first 16 bytes of the SHA-256
// over the canonical field encoding (each field's text followed by a NUL),
// hex-encoded. It names the cell in the store and the per-cell trace files.
func (id Identity) Key() string {
	var buf [192]byte
	b := buf[:0]
	for _, s := range [...]string{id.Platform, id.Policy, id.Workload, id.Placer} {
		b = append(append(b, s...), 0)
	}
	b = append(strconv.AppendInt(b, id.Seed, 10), 0)
	b = append(strconv.AppendInt(b, id.DurationNS, 10), 0)
	b = append(strconv.AppendBool(b, id.UntilDone), 0)
	b = append(strconv.AppendInt(b, id.TickNS, 10), 0)
	b = append(strconv.AppendInt(b, id.SampleNS, 10), 0)
	sum := sha256.Sum256(b)
	var key [32]byte
	hex.Encode(key[:], sum[:16])
	return string(key[:])
}

// Record is one cell's persisted outcome: its identity plus the summary
// metrics the aggregates, CSV export, and text reports consume. It is a
// condensation of sim.Report — the sampled series stay out of the store
// (the power-trace export carries the per-tick data when asked for).
type Record struct {
	// Key is the identity hash; redundant with Identity but stored so the
	// file is self-describing and greppable by key.
	Key string `json:"key"`
	Identity

	// Finished is the session's completion verdict (RunUntilDone's for
	// UntilDone cells, true for duration-shaped ones).
	Finished bool `json:"finished"`
	// ElapsedNS is the session's actual simulated length — equal to the
	// identity's DurationNS for duration-shaped cells, possibly shorter
	// for UntilDone cells that finished early.
	ElapsedNS int64 `json:"elapsed_ns"`
	// HasFrames says whether AvgFPS/DropRate are meaningful.
	HasFrames bool    `json:"has_frames"`
	AvgFPS    float64 `json:"avg_fps"`
	DropRate  float64 `json:"drop_rate"`

	AvgPowerW         float64 `json:"avg_power_w"`
	PeakPowerW        float64 `json:"peak_power_w"`
	EnergyJ           float64 `json:"energy_j"`
	AvgFreqHz         float64 `json:"avg_freq_hz"`
	AvgOnlineCores    float64 `json:"avg_online_cores"`
	AvgUtil           float64 `json:"avg_util"`
	AvgQuota          float64 `json:"avg_quota"`
	AvgTempC          float64 `json:"avg_temp_c"`
	MaxTempC          float64 `json:"max_temp_c"`
	ExecutedCycles    float64 `json:"executed_cycles"`
	QuotaThrottledSec float64 `json:"quota_throttled_sec"`
	ThermalCappedSec  float64 `json:"thermal_capped_sec"`
}

// Store is a load-then-merge view of one store directory. Open loads the
// existing records; Put adds or replaces records in memory; Flush rewrites
// the JSONL file sorted by key (atomically, via a temp file rename); Close
// releases the writer lock. Not safe for concurrent use — the fleet driver
// mutates it only from its single assembly goroutine.
type Store struct {
	dir    string
	recs   map[string]Record
	locked bool
}

// Open creates the store directory if needed, takes the single-writer
// lock, and loads any existing records from its cells file, each line
// through DecodeRecord. A missing cells file is an empty store; a
// malformed line is an error (the store is a cache of expensive runs —
// silently dropping records would silently re-run them). A held lock is
// an error too: before the lock existed, two concurrent writers would
// each rewrite the file from their own view and the last rename silently
// dropped the other's records. Callers must Close the store to release
// the lock.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if err := lock(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, recs: map[string]Record{}, locked: true}
	if err := s.load(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// lock creates the store's lock file exclusively; an existing lock means
// another process holds the store.
func lock(dir string) error {
	path := filepath.Join(dir, LockFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, os.ErrExist) {
		holder, _ := os.ReadFile(path)
		return fmt.Errorf("store: %s is held by another writer (%s): concurrent writers would silently drop each other's records; remove %s if its holder is gone",
			dir, strings.TrimSpace(string(holder)), path)
	}
	if err != nil {
		return fmt.Errorf("store: locking %s: %w", dir, err)
	}
	fmt.Fprintf(f, "pid %d\n", os.Getpid())
	return f.Close()
}

// Close releases the store's writer lock. It does not flush — pairing an
// explicit Flush with a deferred Close keeps error handling honest.
// Closing twice is a no-op.
func (s *Store) Close() error {
	if !s.locked {
		return nil
	}
	s.locked = false
	if err := os.Remove(filepath.Join(s.dir, LockFile)); err != nil {
		return fmt.Errorf("store: unlocking %s: %w", s.dir, err)
	}
	return nil
}

// load reads the cells file into memory.
func (s *Store) load() error {
	path := filepath.Join(s.dir, CellsFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", path, err)
	}
	defer f.Close()
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
			return fmt.Errorf("store: %s line %d: %w", path, line, err)
		}
		if rec.Key == "" {
			return fmt.Errorf("store: %s line %d: record without key", path, line)
		}
		s.recs[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: reading %s: %w", path, err)
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of records held.
func (s *Store) Len() int { return len(s.recs) }

// Get returns the record for a key, if present.
func (s *Store) Get(key string) (Record, bool) {
	rec, ok := s.recs[key]
	return rec, ok
}

// Put adds or replaces a record. Records with equal keys describe the same
// deterministic session, so replacement is idempotent by construction.
func (s *Store) Put(rec Record) {
	s.recs[rec.Key] = rec
}

// PutChecked adds a record, verifying the idempotence Put assumes: a key
// already held must carry an identical record — equal keys name the same
// deterministic session, so any payload difference means one side ran
// different physics (or a corrupted fragment) and must fail loudly rather
// than silently overwrite. It reports whether the record was new.
func (s *Store) PutChecked(rec Record) (added bool, err error) {
	if have, ok := s.recs[rec.Key]; ok {
		if have != rec {
			return false, fmt.Errorf("store: conflicting records for key %s: the same cell produced different results (%+v vs %+v)", rec.Key, have, rec)
		}
		return false, nil
	}
	s.recs[rec.Key] = rec
	return true, nil
}

// Records returns every record sorted by key — the file order of Flush.
func (s *Store) Records() []Record {
	out := make([]Record, 0, len(s.recs))
	for _, key := range s.Keys() {
		out = append(out, s.recs[key])
	}
	return out
}

// Keys returns every key in sorted order — the file order of Flush and
// WriteCSV.
func (s *Store) Keys() []string {
	keys := make([]string, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Flush rewrites the cells file: one JSON line per record, sorted by key,
// each encoded by appendRecord into one reused buffer. The lines go to a
// temp file, which is fsynced and renamed into place before the directory
// is fsynced, so readers never observe a torn store and a returned Flush
// survives a crash (see the package comment). The bytes depend only on the
// record set — a parallel run, a serial run, and a resumed run that filled
// the same cells all flush byte-identical files.
func (s *Store) Flush() error {
	tmp, err := os.CreateTemp(s.dir, CellsFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	var line []byte
	for _, key := range s.Keys() {
		if line, err = appendRecord(line[:0], s.recs[key]); err != nil {
			tmp.Close()
			return fmt.Errorf("store: encoding record %s: %w", key, err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			tmp.Close()
			return fmt.Errorf("store: writing record %s: %w", key, err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: flushing: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, CellsFile)); err != nil {
		return fmt.Errorf("store: installing cells file: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// CSVHeader is the column list of the CSV export, shared by the store-wide
// export and the fleet result's per-run export so the two files join
// cleanly.
func CSVHeader() []string {
	return []string{
		"key", "platform", "policy", "workload", "placer", "seed",
		"duration_s", "elapsed_s", "until_done", "tick_s", "sample_s",
		"finished", "has_frames", "avg_fps", "drop_rate",
		"avg_power_w", "peak_power_w", "energy_j",
		"avg_freq_hz", "avg_online_cores", "avg_util", "avg_quota",
		"avg_temp_c", "max_temp_c", "executed_cycles",
		"quota_throttled_sec", "thermal_capped_sec",
	}
}

// CSVRow renders the record as one row of CSVHeader columns. Floats use
// the shortest round-trip encoding, so rows are byte-stable across runs.
func (r Record) CSVRow() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		r.Key, r.Platform, r.Policy, r.Workload, r.Placer,
		strconv.FormatInt(r.Seed, 10),
		f(time.Duration(r.DurationNS).Seconds()),
		f(time.Duration(r.ElapsedNS).Seconds()),
		strconv.FormatBool(r.UntilDone),
		f(time.Duration(r.TickNS).Seconds()),
		f(time.Duration(r.SampleNS).Seconds()),
		strconv.FormatBool(r.Finished),
		strconv.FormatBool(r.HasFrames),
		f(r.AvgFPS), f(r.DropRate),
		f(r.AvgPowerW), f(r.PeakPowerW), f(r.EnergyJ),
		f(r.AvgFreqHz), f(r.AvgOnlineCores), f(r.AvgUtil), f(r.AvgQuota),
		f(r.AvgTempC), f(r.MaxTempC), f(r.ExecutedCycles),
		f(r.QuotaThrottledSec), f(r.ThermalCappedSec),
	}
}

// WriteCSV exports every record as CSV, sorted by key — the whole-store
// view that composes across invocations (the fleet result's WriteCSV is
// the per-run view in matrix order).
func (s *Store) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return fmt.Errorf("store: writing csv header: %w", err)
	}
	for _, key := range s.Keys() {
		if err := cw.Write(s.recs[key].CSVRow()); err != nil {
			return fmt.Errorf("store: writing csv row %s: %w", key, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("store: flushing csv: %w", err)
	}
	return nil
}

// Merge combines the records of the src store directories into dst — the
// first-class form of the open-put-flush dance sharded sweeps previously
// hand-rolled. Every key may appear in any number of stores as long as its
// record is identical everywhere; a conflicting record for the same key
// fails the merge loudly, because it means two runs produced different
// results for what the identity hash says is the same deterministic
// session. Because Flush sorts by key, merging N disjoint shard stores
// yields a cells file byte-identical to a single run that filled the whole
// matrix. Returns the number of records new to dst.
func Merge(dst string, srcs ...string) (added int, err error) {
	if len(srcs) == 0 {
		return 0, errors.New("store: merge needs at least one source")
	}
	dstAbs, err := filepath.Abs(dst)
	if err != nil {
		return 0, fmt.Errorf("store: resolving %s: %w", dst, err)
	}
	d, err := Open(dst)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	for _, src := range srcs {
		srcAbs, err := filepath.Abs(src)
		if err != nil {
			return 0, fmt.Errorf("store: resolving %s: %w", src, err)
		}
		if srcAbs == dstAbs {
			return 0, fmt.Errorf("store: merge source %s is the destination", src)
		}
		s, err := Open(src)
		if err != nil {
			return 0, err
		}
		for _, rec := range s.Records() {
			isNew, err := d.PutChecked(rec)
			if err != nil {
				s.Close()
				return 0, fmt.Errorf("merging %s: %w", src, err)
			}
			if isNew {
				added++
			}
		}
		if err := s.Close(); err != nil {
			return 0, err
		}
	}
	if err := d.Flush(); err != nil {
		return 0, err
	}
	return added, nil
}
