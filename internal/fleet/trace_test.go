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
)

// writeReferenceTrace is the format oracle: the json.Encoder writer the
// append encoder replaced, at the same gzip level and through the same
// buffering. It reports the first encode error; the caller decides what a
// failed file means.
func writeReferenceTrace(t *testing.T, path string, samples []TraceSample) error {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := bufio.NewWriterSize(f, 64*1024)
	gz := gzip.NewWriter(buf)
	enc := json.NewEncoder(gz)
	var encErr error
	for _, s := range samples {
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

// writeTrace streams samples through a traceWriter (recycling recycle when
// non-nil) and closes it, returning the writer and Close's error.
func writeTrace(t *testing.T, dir, key string, recycle *traceWriter, samples []TraceSample) (*traceWriter, error) {
	t.Helper()
	tw, err := newTraceWriter(dir, key, recycle)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		tw.sample(s.TSec, s.DtSec, s.SystemW, s.ClusterW)
	}
	return tw, tw.Close()
}

func gunzipFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkMatchesReference writes samples with a fresh traceWriter and with
// the json.Encoder oracle, then requires identical decompressed and
// compressed bytes — or, when the oracle refuses a value, that Close fails
// and removes the file.
func checkMatchesReference(t *testing.T, samples []TraceSample) {
	t.Helper()
	dir := t.TempDir()
	refPath := filepath.Join(dir, "reference.jsonl.gz")
	refErr := writeReferenceTrace(t, refPath, samples)
	_, err := writeTrace(t, dir, "got", nil, samples)
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
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compressed trace differs from encoding/json's (%d vs %d bytes)", len(got), len(want))
	}
}

// Fuzz input format: a stream of ticks. Each tick starts with a header
// byte. A header with its top bit set repeats the previous tick's dt,
// systemW and clusterW, and is followed by t alone. Otherwise the header
// modulo 6 gives the cluster count (0–4, or 5 for a nil slice), followed
// by t, dt, systemW and the cluster values. Every value is 8 little-endian
// bytes of a float64 bit pattern.
const (
	fuzzRepeat   = 0x80
	fuzzNilShape = 5
	fuzzMaxTicks = 1024
)

func decodeFuzzTicks(data []byte) []TraceSample {
	next := func() (float64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return x, true
	}
	var out []TraceSample
	for len(data) > 0 && len(out) < fuzzMaxTicks {
		h := data[0]
		data = data[1:]
		var s TraceSample
		var ok bool
		if s.TSec, ok = next(); !ok {
			break
		}
		if h&fuzzRepeat != 0 && len(out) > 0 {
			prev := out[len(out)-1]
			s.DtSec, s.SystemW, s.ClusterW = prev.DtSec, prev.SystemW, prev.ClusterW
			out = append(out, s)
			continue
		}
		if s.DtSec, ok = next(); !ok {
			break
		}
		if s.SystemW, ok = next(); !ok {
			break
		}
		n := int(h&^fuzzRepeat) % (fuzzNilShape + 1)
		if n != fuzzNilShape {
			s.ClusterW = make([]float64, 0, n)
			for i := 0; i < n && ok; i++ {
				var w float64
				if w, ok = next(); ok {
					s.ClusterW = append(s.ClusterW, w)
				}
			}
			if !ok {
				break
			}
		}
		out = append(out, s)
	}
	return out
}

// encodeFuzzTicks encodes samples for the seed corpus. Ticks that repeat
// selects use the compact repeat header, so they decode with the previous
// tick's power in place of their own.
func encodeFuzzTicks(samples []TraceSample, repeat func(i int) bool) []byte {
	var b []byte
	put := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	for i, s := range samples {
		if i > 0 && repeat != nil && repeat(i) {
			b = append(b, fuzzRepeat)
			put(s.TSec)
			continue
		}
		shape := byte(len(s.ClusterW))
		if s.ClusterW == nil {
			shape = fuzzNilShape
		}
		b = append(b, shape)
		put(s.TSec)
		put(s.DtSec)
		put(s.SystemW)
		for _, w := range s.ClusterW {
			put(w)
		}
	}
	return b
}

// traceSeedStreams are the hand-picked streams the oracle test runs and
// the fuzz target starts from: each aims at one way the append encoder or
// its tail cache could drift from encoding/json.
func traceSeedStreams() map[string][]TraceSample {
	negZero := math.Copysign(0, -1)
	seeds := map[string][]TraceSample{}

	// ±0 alternating across ticks in one tail position at a time: ==
	// would treat each pair as one tail.
	var zeros []TraceSample
	for pos := 0; pos < 5; pos++ {
		for i := 0; i < 4; i++ {
			v := [5]float64{} // t, dt, systemW, clusterW[0], clusterW[1]
			if i%2 == 1 {
				v[pos] = negZero
			}
			zeros = append(zeros, TraceSample{TSec: v[0], DtSec: v[1], SystemW: v[2], ClusterW: []float64{v[3], v[4]}})
		}
	}
	seeds["signed-zeros"] = zeros

	// Subnormals and the 'e'-format cut-offs on both sides of each.
	edges := []float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 9.999999e-7,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e21, 1e100, -1e-100,
		math.MaxFloat64, -math.MaxFloat64,
	}
	var edge []TraceSample
	for i, x := range edges {
		edge = append(edge, TraceSample{TSec: x, DtSec: x, SystemW: -x, ClusterW: []float64{x, edges[(i+1)%len(edges)]}})
	}
	seeds["exponent-edges"] = edge

	// 17-significant-digit values, which shortest formatting must keep.
	seeds["17-digits"] = []TraceSample{
		{TSec: 0.30000000000000004, DtSec: 1.0000000000000002, SystemW: 123456.78901234567, ClusterW: []float64{0.30000000000000004, 2.718281828459045, 1.7976931348623157e+20}},
		{TSec: 1.0 / 3, DtSec: 0.001, SystemW: 9007199254740993, ClusterW: []float64{math.Pi, math.E, math.Sqrt2, math.Ln2}},
	}

	// Long runs of repeated power broken by a single change, with the
	// cluster count and nil-ness also changing between runs — the shape of
	// a quiescent session, where the tail cache does its work. At about
	// 65 bytes a line the stream crosses the 16 KiB batch several times.
	var runs []TraceSample
	shapes := [][]float64{{1.25, 0.5}, {1.25, 0.5}, nil, {}, {1.25, 0.5, 0}, {1.25, 0.5}}
	for i := 0; i < 1000; i++ {
		s := TraceSample{TSec: float64(i) * 0.001, DtSec: 0.001, SystemW: 2.5, ClusterW: shapes[(i/100)%len(shapes)]}
		if i%100 == 50 {
			s.SystemW = 2.5000000000000004
		}
		if i == 333 {
			s.DtSec = 0.0005
		}
		runs = append(runs, s)
	}
	seeds["repeat-runs"] = runs

	seeds["nil-vs-empty"] = []TraceSample{
		{TSec: 0, DtSec: 0.001, SystemW: 1},
		{TSec: 0.001, DtSec: 0.001, SystemW: 1, ClusterW: []float64{}},
		{TSec: 0.002, DtSec: 0.001, SystemW: 1},
	}

	// Non-finite values in each position: the file must not survive.
	seeds["nan-cluster"] = []TraceSample{
		{TSec: 0, DtSec: 0.001, SystemW: 1, ClusterW: []float64{0.5}},
		{TSec: 0.001, DtSec: 0.001, SystemW: 1, ClusterW: []float64{math.NaN()}},
	}
	seeds["inf-time"] = []TraceSample{{TSec: math.Inf(1), DtSec: 0.001, SystemW: 1}}
	seeds["neg-inf-power"] = []TraceSample{
		{TSec: 0, DtSec: 0.001, SystemW: 1},
		{TSec: 0.001, DtSec: 0.001, SystemW: math.Inf(-1)},
	}
	seeds["nan-dt-after-repeats"] = []TraceSample{
		{TSec: 0, DtSec: 0.001, SystemW: 1},
		{TSec: 0.001, DtSec: 0.001, SystemW: 1},
		{TSec: 0.002, DtSec: math.NaN(), SystemW: 1},
	}
	return seeds
}

// TestTraceMatchesEncodingJSON locks the trace format contract: every
// line is byte-for-byte encoding/json's encoding of its TraceSample, and
// the compressed file matches the json.Encoder writer's too.
func TestTraceMatchesEncodingJSON(t *testing.T) {
	for name, samples := range traceSeedStreams() {
		t.Run(name, func(t *testing.T) { checkMatchesReference(t, samples) })
	}
}

// TestTraceWriterRecycleAfterAbort: a writer aborted while it still holds
// batched lines and a cached tail, or closed after a latched error, is
// recycled for the next cell as cellScratch does. Each next file must be
// byte-identical to a fresh writer's, with nothing carried across cells.
func TestTraceWriterRecycleAfterAbort(t *testing.T) {
	dir := t.TempDir()
	next := []TraceSample{
		{TSec: 0, DtSec: 0.001, SystemW: 3, ClusterW: []float64{1, 2}},
		{TSec: 0.001, DtSec: 0.001, SystemW: 3, ClusterW: []float64{1, 2}},
		{TSec: 0.002, DtSec: 0.001, SystemW: 4, ClusterW: []float64{1, 2}},
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
		tw.sample(float64(i)*0.001, 0.001, 3, []float64{1, 2})
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

	tw, err = writeTrace(t, dir, "failed", tw, []TraceSample{next[0], {TSec: 0.001, DtSec: 0.001, SystemW: math.NaN()}})
	if err == nil {
		t.Fatal("Close accepted a NaN sample")
	}
	check("after-error")
}

// FuzzTraceLine feeds arbitrary float64 bit patterns — any cluster count
// from 0 to 4, nil or empty, runs of repeats — through the append encoder
// and requires the json.Encoder writer's bytes, compressed and not.
func FuzzTraceLine(f *testing.F) {
	for _, samples := range traceSeedStreams() {
		f.Add(encodeFuzzTicks(samples, nil))
		f.Add(encodeFuzzTicks(samples, func(i int) bool { return i%3 != 0 }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, decodeFuzzTicks(data))
	})
}
