// Package store is the fleet driver's persistent result store: one JSONL
// record per completed cell, keyed by a canonical identity hash, so sweeps
// compose across sequential invocations. A re-run of the same Spec loads
// its cached cells from the store and executes only the missing ones.
//
// A store directory holds two files. cells.jsonl is the canonical main
// file: one line per record, sorted by key, so its bytes depend only on
// which cells exist — never on execution order, parallelism, or how many
// invocations it took to fill the matrix. cells.log is an append-only
// delta log of the records flushed since the main file was last
// rewritten.
//
// Each main-file line is byte-for-byte encoding/json's encoding of a
// Record. The package writes and parses that form itself, without
// reflection (see codec.go); a record or line outside it falls back to
// encoding/json, so what the store accepts, rejects and returns is what
// encoding/json would. Each log line is a frame: the CRC-32C of the
// record's line as 8 hex digits, a space, the line, a newline.
//
// The store assumes one writer at a time: Open indexes the files, Put
// merges in memory, and Flush persists what was Put since the last Flush.
// Open enforces that with a lock file (created O_CREATE|O_EXCL, removed by
// Close): a second process opening a held store fails with a clear error
// instead of silently dropping the first one's records. Sharding a sweep
// across processes uses disjoint store directories — one per shard —
// combined afterwards with Merge, which refuses conflicting records for
// the same key.
//
// Open reads the main file once and keeps an index, not records: the
// offset, length and key of each line in the canonical layout, which it
// checks token by token without converting a value (only a number that
// might overflow goes to strconv). Any other line is decoded at Open and
// held decoded, and so is a whole file whose keys are out of order, which
// this package never writes. So Open accepts and rejects exactly what
// DecodeRecord does, with the same line-numbered errors. Then Open reads
// the log: every frame whose CRC matches loads, indexed the same way, and
// a later record replaces an earlier one with the same key, as a later
// main-file line does. A torn or CRC-bad last frame is what a writer
// killed mid-append leaves; Open drops it and truncates it away. A bad
// frame before another frame is a line-numbered error. Get reads one line
// or frame back with ReadAt; Records and a rewrite read the main
// file once, front to back, and the log once. ReadAll, for a read-only
// caller that wants every record, decodes each line while Open's read
// checks it, and reads nothing again. Every such read must hash to
// what Open read (and, for the log, what appends added since): a file
// changed since Open — written by another process while the lock was
// held — fails the read, and Flush then leaves the main file alone.
//
// Flush appends the records Put since the last Flush to the log, unless
// there is no main file yet, an earlier append failed, or one of those
// Puts replaced a record the files already hold; then, and when nothing
// is new, it rewrites, as Compact always does. So outside crash states
// the log never holds a key twice, and an Open's log scan stays within
// one scan of the store. An append checks that the main file still
// hashes to what Open read, writes the frames in one write, fsyncs the
// log, and fsyncs the directory when it created the log.
//
// A rewrite decodes every record, encodes it again, and writes the lines,
// sorted by key, to a temp file; it fsyncs the file, renames it over the
// main file, fsyncs the directory, and removes the log. So a file this
// package did not write (a hand edit, another tool's file) is normalized:
// a hand-written 0.10000000000000001 is written back as 0.1.
//
// Crash states. A reader sees the previous complete main file or the new
// one, never a partial one; once Flush or Compact returns, what it wrote
// survives a crash or power loss, as far as the file system honours fsync
// and atomic rename. A crash during a rewrite leaves the previous main
// file plus a stale cells.jsonl.tmp-* file, which Open ignores. A crash
// after the rename and before the log's removal leaves log records that
// repeat main-file records, which Open accepts. A crash during an append
// leaves at most a torn last frame. The store holds the main file open
// between Open and Close, and a rewrite renames over it, as POSIX file
// systems allow.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// CellsFile is the name of the per-cell JSONL file inside a store
// directory.
const CellsFile = "cells.jsonl"

// LockFile is the name of the single-writer lock file inside a store
// directory. It exists exactly while some process holds the store open.
const LockFile = "store.lock"

// LogFile is the name of the append-only delta log inside a store
// directory: one CRC-framed line per record flushed since the last
// rewrite of the cells file.
const LogFile = "cells.log"

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

// Store is one store directory opened for reading and merging. Open
// indexes the existing records; Put adds or replaces records in memory;
// Flush appends the new ones to the log or rewrites the cells file sorted
// by key, and Compact always rewrites; Close releases the writer lock. Not
// safe for concurrent use — the fleet driver mutates it only from its
// single assembly goroutine.
type Store struct {
	dir    string
	locked bool
	// cellsPath and logPath are the paths of the cells file and the log.
	cellsPath, logPath string

	// file is the cells file Open read or the last rewrite wrote, held
	// open for reads; nil when there was none. sum and size are the
	// CRC-32C and length of its bytes.
	file *os.File
	sum  uint32
	size int64

	// idx locates, by key, the records still held only as lines of file
	// or frames of log; recs holds every other record, decoded. No key is
	// in both. The indexed lines' keys rise with their offsets, so a walk
	// in key order reads file front to back.
	idx  map[string]loc
	recs map[string]Record
	// eager says Open decodes every line into all and indexes none
	// (ReadAll's read-only path). all holds those records in the order
	// they were read, a key read twice listed twice; ReadAll sorts it.
	eager bool
	all   []Record
	// pending holds the keys Put since the last Flush. replaced says one
	// of those Puts replaced a record the files hold, so the next Flush
	// rewrites instead of logging the key twice.
	pending  map[string]struct{}
	replaced bool
	// log is the delta log, held open for reads and appends; nil when
	// there is none. logSum and logSize are the CRC-32C and length of its
	// frames. torn says a failed append may have left a partial frame, or
	// a rewrite failed to remove the log, so the next Flush rewrites.
	log     *os.File
	logSum  uint32
	logSize int64
	torn    bool
	// err is the first failed read of file; Flush and Close report it.
	err error
}

// loc locates an indexed record: the offset and the length, without the
// line end, of its line of the cells file or, when log is set, its frame
// of the log. The scanners cap a line at 4 MiB, so n fits in 32 bits,
// which keeps an index entry at 16 bytes.
type loc struct {
	off int64
	n   int32
	log bool
}

// Open creates the store directory if needed, takes the single-writer
// lock, and indexes the existing cells file and log (see the package
// comment). Every line is checked as DecodeRecord would check it: a line
// in the canonical layout is scanned without converting its values and
// indexed by key, any other line is decoded now. A missing cells file or
// log holds no records; a malformed line is an error (the store is a cache
// of expensive runs — silently dropping records would silently re-run
// them), except a torn or CRC-bad last log frame, which Open truncates
// away. A held lock is an error too: before the lock existed, two
// concurrent writers would each rewrite the file from their own view and
// the last rename silently dropped the other's records. Callers must Close
// the store to release the lock.
func Open(dir string) (*Store, error) {
	return open(dir, false)
}

// ReadAll returns every record of the store at dir sorted by key, as Open
// and then Records would, with Open's lock and errors, but in one read of
// the cells file and the log: each line is decoded as it is checked
// instead of indexed and read again. It releases the lock before it
// returns.
func ReadAll(dir string) ([]Record, error) {
	s, err := open(dir, true)
	if err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return latestByKey(s.all), nil
}

// latestByKey sorts records read in file order by key, keeping of the
// records read for one key the last. A compacted store's records come
// in strictly rising key order, which it checks first.
func latestByKey(recs []Record) []Record {
	rising := true
	for i := 1; i < len(recs) && rising; i++ {
		rising = recs[i-1].Key < recs[i].Key
	}
	if rising {
		return recs
	}
	slices.SortStableFunc(recs, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
	out := recs[:0]
	for i, r := range recs {
		if i+1 == len(recs) || recs[i+1].Key != r.Key {
			out = append(out, r)
		}
	}
	return out
}

// open is Open, decoding every line at once when eager is set.
func open(dir string, eager bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if err := lock(dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		locked:    true,
		cellsPath: filepath.Join(dir, CellsFile),
		logPath:   filepath.Join(dir, LogFile),
		idx:       map[string]loc{},
		recs:      map[string]Record{},
		pending:   map[string]struct{}{},
		eager:     eager,
	}
	if err := s.load(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.loadLog(); err != nil {
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
// explicit Flush with a deferred Close keeps error handling honest. It
// reports the first failed read of the cells file since Open, which Get
// and Records, having no error result, cannot. Closing twice is a no-op.
func (s *Store) Close() error {
	if !s.locked {
		return nil
	}
	s.locked = false
	if s.file != nil {
		s.file.Close() // read-only
		s.file = nil
	}
	if s.log != nil {
		s.log.Close() // every append was synced
		s.log = nil
	}
	if err := os.Remove(filepath.Join(s.dir, LockFile)); err != nil {
		return fmt.Errorf("store: unlocking %s: %w", s.dir, err)
	}
	return s.err
}

// load indexes the cells file, hashing every byte it reads.
func (s *Store) load() error {
	path := s.cellsPath
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", path, err)
	}
	s.file = f
	if s.eager {
		if fi, err := f.Stat(); err == nil {
			s.all = make([]Record, 0, fi.Size()/minLine+1)
		}
	}
	h := crc32.New(castagnoli)
	sc := bufio.NewScanner(io.TeeReader(f, h))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	// start is the offset of the token Scan last returned: split is last
	// called for that token, and calls asking for more data advance 0.
	var start, next int64
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		start, next = next, next+int64(advance)
		return advance, token, err
	})
	sorted := true
	last := ""
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if k, ok := s.index(b, loc{start, int32(len(b)), false}); ok {
			sorted = sorted && k > last
			last = k
			continue
		}
		rec, err := DecodeRecord(b)
		if err != nil {
			return fmt.Errorf("store: %s line %d: %w", path, line, err)
		}
		if rec.Key == "" {
			return fmt.Errorf("store: %s line %d: record without key", path, line)
		}
		s.keep(rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: reading %s: %w", path, err)
	}
	s.sum, s.size = h.Sum32(), next
	if !sorted && len(s.idx) > 0 {
		return s.decodeLines()
	}
	return nil
}

// minLine is about the shortest a record line in the canonical layout
// runs: its field names and punctuation alone take about 400 bytes. An
// eager load reserves room for a cells file of such lines, so its record
// slice does not grow and copy as it fills.
const minLine = 400

// castagnoli is the CRC-32C table of the file hashes and log frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// loadLog indexes the log's frames over what load indexed, a later record
// replacing an earlier one, and truncates a torn or CRC-bad last frame
// away. Like load it keeps an index entry, not the bytes, of a canonical
// record, and it hashes the frames it keeps so later reads can prove the
// log unchanged.
func (s *Store) loadLog() error {
	path := s.logPath
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", path, err)
	}
	s.log = f
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	// As in load, start is the offset of the token Scan last returned. A
	// line keeps any '\r', and a last line without '\n' comes back with
	// terminated false.
	var start, next int64
	terminated := true
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		var (
			advance int
			token   []byte
		)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			advance, token = i+1, data[:i]
		} else if atEOF && len(data) > 0 {
			advance, token, terminated = len(data), data, false
		}
		start, next = next, next+int64(advance)
		return advance, token, nil
	})
	bad := int64(-1) // the offset of a frame that failed its check
	for line := 1; sc.Scan(); line++ {
		if bad >= 0 {
			return fmt.Errorf("store: %s line %d: frame fails its CRC-32C check and is not the last", path, line-1)
		}
		frame := sc.Bytes()
		body, ok := unframe(frame)
		if !ok || !terminated {
			bad = start
			continue
		}
		if err := s.addLogged(body, loc{start, int32(len(frame)), true}); err != nil {
			return fmt.Errorf("store: %s line %d: %w", path, line, err)
		}
		s.logSum = crc32.Update(crc32.Update(s.logSum, castagnoli, frame), castagnoli, lineEnd)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: reading %s: %w", path, err)
	}
	s.logSize = next
	if bad >= 0 {
		if err := f.Truncate(bad); err != nil {
			return fmt.Errorf("store: truncating the torn last frame of %s: %w", path, err)
		}
		s.logSize = bad
	}
	return nil
}

// addLogged indexes the record line of the log frame at l: a line in the
// canonical layout by key, any other line decoded.
func (s *Store) addLogged(line []byte, l loc) error {
	if _, ok := s.index(line, l); ok {
		return nil
	}
	rec, err := DecodeRecord(line)
	if err != nil {
		return err
	}
	if rec.Key == "" {
		return errors.New("record without key")
	}
	s.keep(rec)
	return nil
}

// keep files a decoded record under its key, replacing whatever the store
// held for the key; an eager store appends it to all.
func (s *Store) keep(rec Record) {
	if s.eager {
		s.all = append(s.all, rec)
		return
	}
	delete(s.idx, rec.Key)
	s.recs[rec.Key] = rec
}

// index files a record line in the canonical layout under its key,
// replacing whatever the store held for the key: as idx[key] = l, or
// decoded by keep when the store is eager. It returns the key, or false,
// filing nothing, for any other line or an empty key.
func (s *Store) index(line []byte, l loc) (string, bool) {
	if s.eager {
		var rec Record
		if !decodeCanonical(line, &rec) || rec.Key == "" {
			return "", false
		}
		s.keep(rec)
		return rec.Key, true
	}
	key, ok := scanCanonical(line)
	if !ok || len(key) == 0 {
		return "", false
	}
	k := string(key)
	delete(s.recs, k)
	s.idx[k] = l
	return k, true
}

// readLog reads the log's frames back, which must hash to what Open read
// and the appends since wrote.
func (s *Store) readLog() ([]byte, error) {
	b := make([]byte, s.logSize)
	if _, err := s.log.ReadAt(b, 0); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, s.fail(s.changed(s.logPath))
		}
		return nil, s.fail(fmt.Errorf("store: reading %s: %w", s.logPath, err))
	}
	if crc32.Checksum(b, castagnoli) != s.logSum {
		return nil, s.fail(s.changed(s.logPath))
	}
	return b, nil
}

// lineEnd is the newline a frame ends with, hashed after the frame's
// bytes; a package variable, since a literal passed to crc32.Update
// escapes and would allocate once per frame.
var lineEnd = []byte{'\n'}

// frameHeader is the length of a log frame's header: the CRC-32C of its
// line as 8 hex digits and a space.
const frameHeader = 9

// appendFrame appends a log frame holding line: its CRC-32C as 8 hex
// digits, a space, the line, a newline.
func appendFrame(b, line []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(line, castagnoli))
	b = append(hex.AppendEncode(b, sum[:]), ' ')
	return append(append(b, line...), '\n')
}

// unframe returns the line a log frame, without its newline, holds, and
// whether the frame is well formed and the line matches its CRC-32C.
func unframe(frame []byte) ([]byte, bool) {
	var sum [4]byte
	if len(frame) < frameHeader || frame[frameHeader-1] != ' ' {
		return nil, false
	}
	if _, err := hex.Decode(sum[:], frame[:frameHeader-1]); err != nil {
		return nil, false
	}
	line := frame[frameHeader:]
	return line, binary.BigEndian.Uint32(sum[:]) == crc32.Checksum(line, castagnoli)
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of records held.
func (s *Store) Len() int { return len(s.idx) + len(s.recs) }

// Has reports whether a record for key is held, without reading it.
func (s *Store) Has(key string) bool {
	_, indexed := s.idx[key]
	_, decoded := s.recs[key]
	return indexed || decoded
}

// Get returns the record for a key, if present. An indexed record is
// read back with one ReadAt of its cells-file line or log frame; a failed
// read returns false, and Flush and Close report it.
func (s *Store) Get(key string) (Record, bool) {
	if rec, ok := s.recs[key]; ok {
		return rec, true
	}
	l, ok := s.idx[key]
	if !ok {
		return Record{}, false
	}
	f, path := s.file, s.cellsPath
	if l.log {
		f, path = s.log, s.logPath
	}
	line := make([]byte, l.n)
	if _, err := f.ReadAt(line, l.off); err != nil {
		s.fail(fmt.Errorf("store: reading %s: %w", path, err))
		return Record{}, false
	}
	if l.log {
		if line, ok = unframe(line); !ok {
			s.fail(s.changed(path))
			return Record{}, false
		}
	}
	rec, err := s.decode(path, key, line)
	return rec, err == nil
}

// Put adds or replaces a record. Records with equal keys describe the same
// deterministic session, so replacement is idempotent by construction.
func (s *Store) Put(rec Record) {
	if _, ok := s.pending[rec.Key]; !ok {
		s.replaced = s.replaced || s.Has(rec.Key)
		s.pending[rec.Key] = struct{}{}
	}
	delete(s.idx, rec.Key)
	s.recs[rec.Key] = rec
}

// PutChecked adds a record, verifying the idempotence Put assumes: a key
// already held must carry an identical record — equal keys name the same
// deterministic session, so any payload difference means one side ran
// different physics (or a corrupted fragment) and must fail loudly rather
// than silently overwrite. It reports whether the record was new.
func (s *Store) PutChecked(rec Record) (added bool, err error) {
	have, ok := s.Get(rec.Key)
	if s.err != nil {
		return false, s.err
	}
	if ok {
		if have != rec {
			return false, fmt.Errorf("store: conflicting records for key %s: the same cell produced different results (%+v vs %+v)", rec.Key, have, rec)
		}
		return false, nil
	}
	s.Put(rec)
	return true, nil
}

// Records returns every record sorted by key — the file order of a
// rewrite — reading the cells file and the log once each. After a failed
// read it returns nil, and Flush and Close report the error.
func (s *Store) Records() []Record {
	out := make([]Record, 0, s.Len())
	if s.walk(func(rec Record) error { out = append(out, rec); return nil }) != nil {
		return nil
	}
	return out
}

// Keys returns every key in sorted order — the file order of a rewrite.
func (s *Store) Keys() []string {
	keys := slices.AppendSeq(make([]string, 0, s.Len()), maps.Keys(s.idx))
	keys = slices.AppendSeq(keys, maps.Keys(s.recs))
	slices.Sort(keys)
	return keys
}

// decode decodes the indexed line of key read from the file at path.
// Open found the line canonical, so a line that no longer decodes to its
// key means the file changed under the lock.
func (s *Store) decode(path, key string, line []byte) (Record, error) {
	var r Record
	if !decodeCanonical(line, &r) || r.Key != key {
		return Record{}, s.fail(s.changed(path))
	}
	return r, nil
}

// changed is the error for a cells file or log that is not the one Open
// read.
func (s *Store) changed(path string) error {
	return fmt.Errorf("store: %s changed since Open: another process wrote it while this one held %s", path, LockFile)
}

// fail records the first failed read and returns it.
func (s *Store) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// walk calls fn for every record in key order, decoded. Indexed lines
// come from one front-to-back read of the cells file, which must hash to
// what Open read; logged records come from one read of the log, which
// must hash to what Open read and the appends since wrote. The first
// error stops the walk.
func (s *Store) walk(fn func(Record) error) error {
	if s.err != nil {
		return s.err
	}
	var (
		r   *lineReader
		log []byte
	)
	for _, key := range s.Keys() {
		rec, decoded := s.recs[key]
		var err error
		switch l := s.idx[key]; {
		case decoded:
		case l.log:
			if log == nil {
				log, err = s.readLog()
			}
			if err == nil {
				rec, err = s.decode(s.logPath, key, log[l.off+frameHeader:l.off+int64(l.n)])
			}
		default:
			if r == nil {
				r = s.newLineReader()
			}
			var line []byte
			if line, err = r.read(l); err == nil {
				rec, err = s.decode(s.cellsPath, key, line)
			}
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	if r != nil {
		return r.finish()
	}
	return nil
}

// decodeLines moves every indexed cells-file line into recs, reading the
// cells file again in offset order — Open's path for a file whose keys
// are out of order, which this package never writes.
func (s *Store) decodeLines() error {
	var keys []string
	for k, l := range s.idx {
		if !l.log {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return s.idx[keys[i]].off < s.idx[keys[j]].off })
	r := s.newLineReader()
	for _, key := range keys {
		line, err := r.read(s.idx[key])
		if err != nil {
			return err
		}
		rec, err := s.decode(s.cellsPath, key, line)
		if err != nil {
			return err
		}
		s.keep(rec)
	}
	return r.finish()
}

// lineReader reads indexed lines front to back from the cells file,
// hashing every byte it passes so finish can prove the file is the one
// Open read.
type lineReader struct {
	s   *Store
	h   hash.Hash32
	br  *bufio.Reader
	pos int64
	buf []byte
}

func (s *Store) newLineReader() *lineReader {
	h := crc32.New(castagnoli)
	src := io.TeeReader(io.NewSectionReader(s.file, 0, math.MaxInt64), h)
	return &lineReader{s: s, h: h, br: bufio.NewReaderSize(src, 64*1024)}
}

// read returns the cells-file line at l, which must not start before the
// end of the previous one.
func (r *lineReader) read(l loc) ([]byte, error) {
	if _, err := r.br.Discard(int(l.off - r.pos)); err != nil {
		return nil, r.error(err)
	}
	r.buf = slices.Grow(r.buf[:0], int(l.n))[:l.n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, r.error(err)
	}
	r.pos = l.off + int64(l.n)
	return r.buf, nil
}

// finish reads the rest of the file and checks the hash and length of
// everything read against what Open read.
func (r *lineReader) finish() error {
	n, err := io.Copy(io.Discard, r.br)
	if err != nil {
		return r.error(err)
	}
	if r.h.Sum32() != r.s.sum || r.pos+n != r.s.size {
		return r.s.fail(r.s.changed(r.s.cellsPath))
	}
	return nil
}

// error records a failed read; a file that ends early has shrunk since
// Open.
func (r *lineReader) error(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return r.s.fail(r.s.changed(r.s.cellsPath))
	}
	return r.s.fail(fmt.Errorf("store: reading %s: %w", r.s.cellsPath, err))
}

// Flush persists the records Put since the last Flush. It appends them
// to the log, in key order, unless there are none, there is no cells file
// yet, an earlier append failed, or one of those Puts replaced a record
// the files hold; then it rewrites, as Compact does. An append first
// checks that the cells file still hashes to what Open read, then writes
// the frames in one write and fsyncs the log, and the directory when the
// log is new. Either way a returned Flush survives a crash (see the
// package comment).
func (s *Store) Flush() error {
	if len(s.pending) == 0 || s.file == nil || s.torn || s.replaced {
		return s.Compact()
	}
	keys := slices.AppendSeq(make([]string, 0, len(s.pending)), maps.Keys(s.pending))
	slices.Sort(keys)
	var frames, enc []byte
	for _, key := range keys {
		var err error
		if enc, err = appendRecord(enc[:0], s.recs[key]); err != nil {
			return fmt.Errorf("store: encoding record %s: %w", key, err)
		}
		if frames == nil {
			// A study's records encode to similar lengths: sized from the
			// first, the buffer rarely grows.
			frames = make([]byte, 0, len(s.pending)*(frameHeader+len(enc)+1)*5/4)
		}
		frames = appendFrame(frames, enc)
	}
	if err := s.appendLog(frames); err != nil {
		return err
	}
	clear(s.pending)
	return nil
}

// appendLog appends frames to the log, creating it if needed, after
// checking that the cells file is the one Open read. A failed write or
// sync may leave a partial frame, so it marks the log torn.
func (s *Store) appendLog(frames []byte) error {
	if s.err != nil {
		return s.err
	}
	if err := s.newLineReader().finish(); err != nil {
		return err
	}
	path := s.logPath
	created := s.log == nil
	if created {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: creating %s: %w", path, err)
		}
		s.log = f
	}
	_, err := s.log.Write(frames)
	if err == nil {
		err = s.log.Sync()
	}
	if err == nil && created {
		err = syncDir(s.dir)
	}
	if err != nil {
		s.torn = true
		return fmt.Errorf("store: appending to %s: %w", path, err)
	}
	s.logSum = crc32.Update(s.logSum, castagnoli, frames)
	s.logSize += int64(len(frames))
	return nil
}

// Compact rewrites the cells file: one JSON line per record, sorted by
// key, each record encoded by appendRecord. The old file must still hash
// to what Open read, or Compact fails and leaves it alone. The lines go
// to a temp file, which is fsynced and renamed into place before the
// directory is fsynced, so readers never observe a torn store and a
// returned Compact survives a crash. Then the log is removed, and the
// store re-indexes against the new file and drops its decoded records,
// except the few only encoding/json could write. The bytes depend only on
// the record set — a parallel run, a serial run, and a resumed run that
// filled the same cells all write byte-identical files.
func (s *Store) Compact() error {
	tmp, err := os.CreateTemp(s.dir, CellsFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	h := crc32.New(castagnoli)
	w := bufio.NewWriterSize(io.MultiWriter(tmp, h), 64*1024)
	idx := make(map[string]loc, s.Len())
	recs := map[string]Record{} // records encoding/json wrote, kept decoded
	var (
		enc []byte
		off int64
	)
	err = s.walk(func(rec Record) error {
		var ok bool
		if enc, ok = appendCanonical(enc[:0], &rec); ok {
			idx[rec.Key] = loc{off: off, n: int32(len(enc))}
		} else {
			var err error
			if enc, err = appendRecord(enc[:0], rec); err != nil {
				return fmt.Errorf("store: encoding record %s: %w", rec.Key, err)
			}
			recs[rec.Key] = rec
		}
		off += int64(len(enc)) + 1
		w.Write(enc)
		// A bufio.Writer's error sticks, so this also reports a failed
		// Write.
		if err := w.WriteByte('\n'); err != nil {
			return fmt.Errorf("store: writing record %s: %w", rec.Key, err)
		}
		return nil
	})
	if err != nil {
		tmp.Close()
		return err
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
	if err := os.Rename(tmp.Name(), s.cellsPath); err != nil {
		return fmt.Errorf("store: installing cells file: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}
	f, err := os.Open(s.cellsPath)
	if err != nil {
		return fmt.Errorf("store: reopening %s: %w", s.cellsPath, err)
	}
	if s.file != nil {
		s.file.Close() // read-only
	}
	s.file, s.sum, s.size = f, h.Sum32(), off
	s.idx, s.recs = idx, recs
	clear(s.pending)
	s.replaced = false
	// Every logged record is in the new file now; a crash before the log
	// is gone leaves records the file repeats, which Open accepts.
	if s.log != nil {
		s.log.Close() // every append was synced
		s.log = nil
	}
	s.logSum, s.logSize = 0, 0
	if err := os.Remove(s.logPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.torn = true // a log left in place must not be appended to
		return fmt.Errorf("store: removing %s: %w", s.logPath, err)
	}
	s.torn = false
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

// AppendCSV appends the record as one CSV row of CSVHeader columns, line
// end included: exactly the bytes encoding/csv's Writer (comma ',', LF
// line ends) writes for the row's fields. Floats use the shortest
// round-trip encoding, so rows are byte-stable across runs.
func (r *Record) AppendCSV(b []byte) []byte {
	for _, s := range [...]string{r.Key, r.Platform, r.Policy, r.Workload, r.Placer} {
		b = append(appendCSVField(b, s), ',')
	}
	b = append(strconv.AppendInt(b, r.Seed, 10), ',')
	b = appendCSVFloat(b, time.Duration(r.DurationNS).Seconds())
	b = appendCSVFloat(b, time.Duration(r.ElapsedNS).Seconds())
	b = append(strconv.AppendBool(b, r.UntilDone), ',')
	b = appendCSVFloat(b, time.Duration(r.TickNS).Seconds())
	b = appendCSVFloat(b, time.Duration(r.SampleNS).Seconds())
	b = append(strconv.AppendBool(b, r.Finished), ',')
	b = append(strconv.AppendBool(b, r.HasFrames), ',')
	for _, v := range [...]float64{
		r.AvgFPS, r.DropRate,
		r.AvgPowerW, r.PeakPowerW, r.EnergyJ,
		r.AvgFreqHz, r.AvgOnlineCores, r.AvgUtil, r.AvgQuota,
		r.AvgTempC, r.MaxTempC, r.ExecutedCycles,
		r.QuotaThrottledSec, r.ThermalCappedSec,
	} {
		b = appendCSVFloat(b, v)
	}
	b[len(b)-1] = '\n' // the last field's comma ends the line
	return b
}

// appendCSVFloat appends v in the shortest 'g' form that round-trips and
// a comma. No such form needs CSV quoting.
func appendCSVFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), ',')
}

// appendCSVField appends s as encoding/csv's Writer writes a field: bare
// unless it is `\.`, holds a comma, a double quote, CR or LF, or starts
// with a Unicode space; then inside double quotes, with each double quote
// doubled and every other byte as is.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

// csvNeedsQuotes is encoding/csv's quoting rule for a ',' separator.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// Merge combines the records of the src store directories into dst — the
// first-class form of the open-put-flush dance sharded sweeps previously
// hand-rolled. Every key may appear in any number of stores as long as its
// record is identical everywhere; a conflicting record for the same key
// fails the merge loudly, because it means two runs produced different
// results for what the identity hash says is the same deterministic
// session. Because a rewrite sorts by key, merging N disjoint shard stores
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
	if err := d.Compact(); err != nil {
		return 0, err
	}
	return added, nil
}
