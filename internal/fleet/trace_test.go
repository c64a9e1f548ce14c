package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
)

// traceCall is one call of traceWriter.sample: the tick's start as the
// engine hands it over, and the rest of the line as float64s so a test can
// put any bit pattern there.
type traceCall struct {
	now         time.Duration
	dt, systemW float64
	clusterW    []float64
}

// referenceGzipLevel is the compress/gzip level of the reference writer,
// the level trace files were written at before the line deflater; the
// size guard holds the deflater's files to its sizes.
const referenceGzipLevel = 2

// writeReferenceTrace is the format oracle: the json.Encoder writer the
// append encoder replaced, through compress/gzip at referenceGzipLevel. It
// reports the first encode error; the caller decides what a failed file
// means.
func writeReferenceTrace(t *testing.T, path string, calls []traceCall) error {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := bufio.NewWriterSize(f, 64*1024)
	gz, err := gzip.NewWriterLevel(buf, referenceGzipLevel)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(gz)
	var encErr error
	for _, c := range calls {
		s := TraceSample{TSec: c.now.Seconds(), DtSec: c.dt, SystemW: c.systemW, ClusterW: c.clusterW}
		if encErr = enc.Encode(s); encErr != nil {
			break
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return encErr
}

// writeTrace streams calls through a traceWriter (recycling recycle when
// non-nil) and closes it, returning the writer and Close's error.
func writeTrace(t *testing.T, dir, key string, recycle *traceWriter, calls []traceCall) (*traceWriter, error) {
	t.Helper()
	tw, err := newTraceWriter(dir, key, recycle)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		tw.sample(c.now, c.dt, c.systemW, c.clusterW)
	}
	return tw, tw.Close()
}

// gunzip decompresses one gzip member through compress/gzip to EOF, which
// checks the trailer's CRC-32 and length.
func gunzip(t *testing.T, gz []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// gunzipFile reads a gzip file through compress/gzip to EOF, which checks
// the trailer's CRC-32 and length.
func gunzipFile(t *testing.T, path string) []byte {
	t.Helper()
	gz, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return gunzip(t, gz)
}

// checkMatchesReference writes calls with a fresh traceWriter and with
// the json.Encoder oracle, then requires identical decompressed bytes —
// or, when the oracle refuses a value, that Close fails and removes the
// file. The decompressed bytes are the format contract; the compressed
// ones are locked by TestTraceCompressedGolden.
func checkMatchesReference(t *testing.T, calls []traceCall) {
	t.Helper()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "reference.jsonl.gz")
	refErr := writeReferenceTrace(t, refPath, calls)
	_, err := writeTrace(t, dir, "got", nil, calls)
	gotPath := filepath.Join(dir, TraceFileName("got"))
	if refErr != nil {
		if err == nil {
			t.Fatalf("encoding/json refused the samples (%v) but Close succeeded", refErr)
		}
		if _, statErr := os.Stat(gotPath); !os.IsNotExist(statErr) {
			t.Fatalf("failed trace left on disk (stat: %v)", statErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("Close: %v (encoding/json accepted the samples)", err)
	}
	if got, want := gunzipFile(t, gotPath), gunzipFile(t, refPath); !bytes.Equal(got, want) {
		t.Fatalf("decompressed trace differs from encoding/json:\n got %q\nwant %q", got, want)
	}
}

// Fuzz input format: a stream of ticks. Each tick starts with a header
// byte. A header with its top bit set repeats the previous tick's dt,
// systemW and clusterW, and is followed by t alone. Otherwise the header
// modulo 6 gives the cluster count (0–4, or 5 for a nil slice), followed
// by t, dt, systemW and the cluster values. Every value is 8 little-endian
// bytes: t is the tick's start in int64 nanoseconds, the rest float64 bit
// patterns.
const (
	fuzzRepeat   = 0x80
	fuzzNilShape = 5
	fuzzMaxTicks = 1024
)

func decodeFuzzTicks(data []byte) []traceCall {
	next := func() (uint64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		x := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return x, true
	}
	nextFloat := func() (float64, bool) {
		x, ok := next()
		return math.Float64frombits(x), ok
	}
	var out []traceCall
	for len(data) > 0 && len(out) < fuzzMaxTicks {
		h := data[0]
		data = data[1:]
		var c traceCall
		ns, ok := next()
		if !ok {
			break
		}
		c.now = time.Duration(ns)
		if h&fuzzRepeat != 0 && len(out) > 0 {
			prev := out[len(out)-1]
			c.dt, c.systemW, c.clusterW = prev.dt, prev.systemW, prev.clusterW
			out = append(out, c)
			continue
		}
		if c.dt, ok = nextFloat(); !ok {
			break
		}
		if c.systemW, ok = nextFloat(); !ok {
			break
		}
		n := int(h&^fuzzRepeat) % (fuzzNilShape + 1)
		if n != fuzzNilShape {
			c.clusterW = make([]float64, 0, n)
			for i := 0; i < n && ok; i++ {
				var w float64
				if w, ok = nextFloat(); ok {
					c.clusterW = append(c.clusterW, w)
				}
			}
			if !ok {
				break
			}
		}
		out = append(out, c)
	}
	return out
}

// encodeFuzzTicks encodes calls for the seed corpus. Ticks that repeat
// selects use the compact repeat header, so they decode with the previous
// tick's power in place of their own.
func encodeFuzzTicks(calls []traceCall, repeat func(i int) bool) []byte {
	var b []byte
	put := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	for i, c := range calls {
		if i > 0 && repeat != nil && repeat(i) {
			b = append(b, fuzzRepeat)
			b = binary.LittleEndian.AppendUint64(b, uint64(c.now))
			continue
		}
		shape := byte(len(c.clusterW))
		if c.clusterW == nil {
			shape = fuzzNilShape
		}
		b = append(b, shape)
		b = binary.LittleEndian.AppendUint64(b, uint64(c.now))
		put(c.dt)
		put(c.systemW)
		for _, w := range c.clusterW {
			put(w)
		}
	}
	return b
}

// traceSeedStreams are the hand-picked streams the oracle test runs and
// the fuzz target starts from: each aims at one way the append encoder or
// its tail cache could drift from encoding/json.
func traceSeedStreams() map[string][]traceCall {
	negZero := math.Copysign(0, -1)
	seeds := map[string][]traceCall{}

	// ±0 alternating across ticks in one tail position at a time: ==
	// would treat each pair as one tail.
	var zeros []traceCall
	for pos := 0; pos < 4; pos++ {
		for i := 0; i < 4; i++ {
			v := [4]float64{} // dt, systemW, clusterW[0], clusterW[1]
			if i%2 == 1 {
				v[pos] = negZero
			}
			zeros = append(zeros, traceCall{now: time.Duration(len(zeros)) * time.Millisecond, dt: v[0], systemW: v[1], clusterW: []float64{v[2], v[3]}})
		}
	}
	seeds["signed-zeros"] = zeros

	// Subnormals and the 'e'-format cut-offs on both sides of each, with
	// times on both sides of appendSeconds' 1 µs and 1e15 ns cut-offs.
	edges := []float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 9.999999e-7,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e21, 1e100, -1e-100,
		math.MaxFloat64, -math.MaxFloat64,
	}
	times := []time.Duration{
		0, 1, 999, 1000, 1001, 1e15 - 1, 1e15, 1e15 + 1, -1, -1000,
		math.MaxInt64, math.MinInt64, 123456789012345678,
	}
	var edge []traceCall
	for i, x := range edges {
		edge = append(edge, traceCall{now: times[i%len(times)], dt: x, systemW: -x, clusterW: []float64{x, edges[(i+1)%len(edges)]}})
	}
	seeds["exponent-edges"] = edge

	// 17-significant-digit values, which shortest formatting must keep.
	seeds["17-digits"] = []traceCall{
		{now: 1118 * time.Millisecond, dt: 1.0000000000000002, systemW: 123456.78901234567, clusterW: []float64{0.30000000000000004, 2.718281828459045, 1.7976931348623157e+20}},
		{now: 1234567890123456789, dt: 0.001, systemW: 9007199254740993, clusterW: []float64{math.Pi, math.E, math.Sqrt2, math.Ln2}},
	}

	// 1 ms ticks from 1.100 s to 1.140 s: d.Seconds() rounds away from the
	// tick's decimal at 1.118, 1.122, 1.128, 1.132 and 1.136 s, so the
	// stream crosses between appendSeconds' two paths.
	var rounding []traceCall
	for ms := 1100; ms <= 1140; ms++ {
		rounding = append(rounding, traceCall{now: time.Duration(ms) * time.Millisecond, dt: 0.001, systemW: 1.5, clusterW: []float64{1}})
	}
	seeds["seconds-rounding"] = rounding

	// Long runs of repeated power broken by a single change, with the
	// cluster count and nil-ness also changing between runs — the shape of
	// a quiescent session, where the tail cache does its work. At about
	// 65 bytes a line the stream crosses the 16 KiB batch several times.
	var runs []traceCall
	shapes := [][]float64{{1.25, 0.5}, {1.25, 0.5}, nil, {}, {1.25, 0.5, 0}, {1.25, 0.5}}
	for i := 0; i < 1000; i++ {
		c := traceCall{now: time.Duration(i) * time.Millisecond, dt: 0.001, systemW: 2.5, clusterW: shapes[(i/100)%len(shapes)]}
		if i%100 == 50 {
			c.systemW = 2.5000000000000004
		}
		if i == 333 {
			c.dt = 0.0005
		}
		runs = append(runs, c)
	}
	seeds["repeat-runs"] = runs

	seeds["nil-vs-empty"] = []traceCall{
		{now: 0, dt: 0.001, systemW: 1},
		{now: time.Millisecond, dt: 0.001, systemW: 1, clusterW: []float64{}},
		{now: 2 * time.Millisecond, dt: 0.001, systemW: 1},
	}

	// Non-finite values in each position: the file must not survive.
	seeds["nan-cluster"] = []traceCall{
		{now: 0, dt: 0.001, systemW: 1, clusterW: []float64{0.5}},
		{now: time.Millisecond, dt: 0.001, systemW: 1, clusterW: []float64{math.NaN()}},
	}
	seeds["inf-dt"] = []traceCall{{now: 0, dt: math.Inf(1), systemW: 1}}
	seeds["neg-inf-power"] = []traceCall{
		{now: 0, dt: 0.001, systemW: 1},
		{now: time.Millisecond, dt: 0.001, systemW: math.Inf(-1)},
	}
	seeds["nan-dt-after-repeats"] = []traceCall{
		{now: 0, dt: 0.001, systemW: 1},
		{now: time.Millisecond, dt: 0.001, systemW: 1},
		{now: 2 * time.Millisecond, dt: math.NaN(), systemW: 1},
	}
	return seeds
}

// TestTraceMatchesEncodingJSON locks the trace format contract: every
// line is byte-for-byte encoding/json's encoding of its TraceSample, and
// the file reads back through compress/gzip.
func TestTraceMatchesEncodingJSON(t *testing.T) {
	for name, calls := range traceSeedStreams() {
		t.Run(name, func(t *testing.T) { checkMatchesReference(t, calls) })
	}
}

// TestTraceWriterRecycleAfterAbort: a writer aborted while it still holds
// batched lines and a cached tail, or closed after a latched error, is
// recycled for the next cell as cellScratch does. Each next file must be
// byte-identical to a fresh writer's, with nothing carried across cells.
func TestTraceWriterRecycleAfterAbort(t *testing.T) {
	dir := t.TempDir()
	next := []traceCall{
		{now: 0, dt: 0.001, systemW: 3, clusterW: []float64{1, 2}},
		{now: time.Millisecond, dt: 0.001, systemW: 3, clusterW: []float64{1, 2}},
		{now: 2 * time.Millisecond, dt: 0.001, systemW: 4, clusterW: []float64{1, 2}},
	}
	freshDir := filepath.Join(dir, "fresh")
	if err := os.Mkdir(freshDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := writeTrace(t, freshDir, "next", nil, next); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(freshDir, TraceFileName("next")))
	if err != nil {
		t.Fatal(err)
	}

	tw, err := newTraceWriter(dir, "aborted", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tw.sample(time.Duration(i)*time.Millisecond, 0.001, 3, []float64{1, 2})
	}
	if len(tw.batch) == 0 || len(tw.tailIn) == 0 {
		t.Fatal("precondition: the aborted writer should hold batched lines and a cached tail")
	}
	tw.Abort()
	if _, err := os.Stat(filepath.Join(dir, TraceFileName("aborted"))); !os.IsNotExist(err) {
		t.Fatalf("aborted trace left on disk (stat: %v)", err)
	}
	check := func(key string) {
		t.Helper()
		var err error
		if tw, err = writeTrace(t, dir, key, tw, next); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, TraceFileName(key)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: recycled writer's trace differs from a fresh writer's", key)
		}
	}
	check("after-abort")

	tw, err = writeTrace(t, dir, "failed", tw, []traceCall{next[0], {now: time.Millisecond, dt: 0.001, systemW: math.NaN()}})
	if err == nil {
		t.Fatal("Close accepted a NaN sample")
	}
	check("after-error")
}

// FuzzTraceLine feeds arbitrary tick times and float64 bit patterns — any
// cluster count from 0 to 4, nil or empty, runs of repeats — through the
// append encoder and requires the json.Encoder writer's decompressed
// bytes.
func FuzzTraceLine(f *testing.F) {
	for _, calls := range traceSeedStreams() {
		f.Add(encodeFuzzTicks(calls, nil))
		f.Add(encodeFuzzTicks(calls, func(i int) bool { return i%3 != 0 }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, decodeFuzzTicks(data))
	})
}

// checkSeconds requires appendSeconds to write exactly what the strconv
// path writes for d. It skips t.Helper, which would dominate the sweep.
func checkSeconds(t *testing.T, d time.Duration) {
	var got, want [32]byte
	g := appendSeconds(got[:0], d)
	w := store.AppendJSONFloat(want[:0], d.Seconds())
	if !bytes.Equal(g, w) {
		t.Fatalf("appendSeconds(%d ns) = %s, want %s", int64(d), g, w)
	}
}

// TestAppendSecondsSweep runs appendSeconds over every 1 ms tick of the
// first hour (788 of whose Seconds() round away from the tick's decimal),
// every nanosecond below 2 ms, and both sides of the 1 µs and 1e15 ns
// cut-offs, where the integer path must hand over to strconv. It also
// covers 2^23 s, the first place a 16-digit decimal round-trips without
// being the shortest (8388608.000000001 s prints as …002), so a 1e15
// cut-off moved that far fails here.
func TestAppendSecondsSweep(t *testing.T) {
	for ms := time.Duration(0); ms <= time.Hour; ms += time.Millisecond {
		checkSeconds(t, ms)
	}
	for ns := time.Duration(0); ns < 2*time.Millisecond; ns++ {
		checkSeconds(t, ns)
	}
	for _, edge := range []time.Duration{time.Microsecond, 1e15, 1 << 23 * time.Second} {
		for d := edge - 2000; d <= edge+2000; d++ {
			checkSeconds(t, d)
			checkSeconds(t, -d)
		}
		for scale := time.Duration(1); scale <= 1e9; scale *= 10 {
			checkSeconds(t, edge-scale)
			checkSeconds(t, edge+scale)
		}
	}
}

// FuzzTraceSeconds compares appendSeconds with the strconv path over
// arbitrary int64 nanoseconds, negative ones included.
func FuzzTraceSeconds(f *testing.F) {
	for _, ns := range []int64{
		0, 1, 999, 1000, 1001, 1118e6, 3600e9, 1e15 - 1, 1e15, 1e15 + 1,
		8388608000000001, -1, -1000, -1118e6, math.MaxInt64, math.MinInt64,
	} {
		f.Add(ns)
	}
	f.Fuzz(func(t *testing.T, ns int64) { checkSeconds(t, time.Duration(ns)) })
}
