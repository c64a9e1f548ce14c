package fleet

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// TestTraceCodeLengths: each alphabet of traceCodeLengths is a complete
// prefix code (Kraft sum exactly 1, which compress/flate's decoder also
// requires) in which every symbol has a code of 1–15 bits.
func TestTraceCodeLengths(t *testing.T) {
	for name, lengths := range map[string][]uint8{
		"literal/length": traceCodeLengths[:numLitLen],
		"distance":       traceCodeLengths[numLitLen:],
	} {
		var kraft uint64 // in units of 2^-15
		for sym, n := range lengths {
			if n < 1 || n > 15 {
				t.Fatalf("%s symbol %d: code length %d outside 1–15", name, sym, n)
			}
			kraft += 1 << (15 - n)
		}
		if kraft != 1<<15 {
			t.Errorf("%s code lengths: Kraft sum %d/32768, want exactly 1", name, kraft)
		}
	}
}

// deflateLines runs lines through a lineDeflater into a buffer. Lines at
// even indexes pass the count of trailing bytes they share with the line
// before, as traceWriter does when its tail is unchanged; odd ones pass 0.
func deflateLines(lines [][]byte) []byte {
	var out bytes.Buffer
	var z lineDeflater
	z.reset(&out)
	var prev []byte
	for i, l := range lines {
		same := 0
		if i%2 == 0 {
			same = commonSuffix(l, prev)
		}
		z.batch = append(z.batch, l...)
		z.endLine(same)
		prev = l
	}
	if err := z.close(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return out.Bytes()
}

// Fuzz input format: lines separated by '\n' (kept at each line's end). A
// line starting with 0xff is stretched: its bytes after the second repeat
// to a length of the second byte times 256, so a short input can hold
// lines over 258 bytes and a previous line over 32 KiB.
func decodeFuzzLines(data []byte) [][]byte {
	var lines [][]byte
	for _, l := range bytes.SplitAfter(data, []byte("\n")) {
		if len(l) > 2 && l[0] == 0xff {
			n := int(l[1]) * 256
			body := l[2:]
			l = bytes.Repeat(body, n/len(body)+1)[:n]
		}
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// FuzzTraceDeflate runs arbitrary byte lines through the line deflater and
// requires compress/gzip to give them back. The seeds cover empty and
// one-byte differences, lines over 258 bytes, a previous line over
// 32 KiB, matches from 25,600 and exactly 32,768 bytes back, repeated and
// alternating lines, and fields that come and go.
func FuzzTraceDeflate(f *testing.F) {
	stretched := func(k byte, body string) string { return "\xff" + string([]byte{k}) + body }
	for _, s := range []string{
		"",
		"\n",
		"a",
		"\n\n\n",
		"abc\nabd\nabd\nabe\n",
		"x\ny\nx\ny\nx\ny\n",
		strings.Repeat(`{"t_s":0.001,"dt_s":0.001,"system_w":1.5,"cluster_w":[1]}`+"\n", 20),
		`{"t_s":1,"a":1.25,"b":[0.5,0.25]}` + "\n" + `{"t_s":1.5,"a":1.375,"b":[0.625,0.25]}` + "\n" + `{"t_s":2,"a":1.375,"b":[0.625]}` + "\n" + `{"t_s":2.5,"a":,"b":[0.625,0.25,0.25]}` + "\n",
		"s:0.7592088528299,c:[0.3837592088528299,1]\ns:0.5407592088528299,c:[0.2837592088528299,1]\n",
		stretched(2, "abcdefg,") + "\n" + stretched(2, "abcdefh,") + "\n",
		stretched(200, "0123456789,") + "\n" + stretched(200, "0123456789,") + "1\n" + stretched(129, "0123,") + "\n",
		stretched(130, "ab") + "\n" + stretched(130, "ab") + "\n" + stretched(130, "ab") + "x\n",
		stretched(100, "abc,") + "\n" + stretched(100, "abc,") + "\n" + stretched(128, "ab,") + "\n" + stretched(128, "ab,") + "\n",
		strings.Repeat("z", 300) + "\n" + strings.Repeat("z", 299) + "y\n" + strings.Repeat("z", 300) + "\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := decodeFuzzLines(data)
		if got, want := gunzip(t, deflateLines(lines)), bytes.Join(lines, nil); !bytes.Equal(got, want) {
			t.Fatalf("round trip differs: got %d bytes, want %d", len(got), len(want))
		}
	})
}

// goldenTraceCalls is the fixed stream of TestTraceCompressedGolden: a
// quiescent run (repeated power, one tail change every 100 ticks, shapes
// that come and go), then ticks whose system and cluster powers change on
// every line and end in the same digits, as a noisy session's do.
func goldenTraceCalls() []traceCall {
	calls := traceSeedStreams()["repeat-runs"]
	for i := range 400 {
		x := 0.5 + 0.4*math.Sin(float64(i)*0.37)
		calls = append(calls, traceCall{
			now: time.Second + time.Duration(i)*time.Millisecond, dt: 0.001,
			systemW: x + 0.25, clusterW: []float64{x, 0.125, float64(i % 3)},
		})
	}
	return calls
}

// TestTraceCompressedGolden pins the compressed bytes of one fixed stream,
// so the encoder stays deterministic and any change to its output is
// deliberate. Regenerate with -update-golden after an intended change;
// TestTraceMatchesEncodingJSON still holds the decompressed bytes.
func TestTraceCompressedGolden(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeTrace(t, dir, "golden", nil, goldenTraceCalls()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, TraceFileName("golden")))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.jsonl.gz")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compressed trace differs from %s (%d vs %d bytes)", golden, len(got), len(want))
	}
	checkMatchesReference(t, goldenTraceCalls())
}

// sessionTraceCalls runs c's session and records every PowerTrace call.
func sessionTraceCalls(t *testing.T, c Cell) []traceCall {
	t.Helper()
	sp, err := c.session()
	if err != nil {
		t.Fatal(err)
	}
	var calls []traceCall
	sp.PowerTrace = func(now, dt time.Duration, systemW float64, clusterW []float64) {
		calls = append(calls, traceCall{now, dt.Seconds(), systemW, append([]float64(nil), clusterW...)})
	}
	if _, err := sp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return calls
}

// TestTraceSizeGuard holds the line deflater's files to at most 1.3× the
// size compress/gzip writes at referenceGzipLevel, on the sample streams of
// a 30 s Nexus 5 day-in-the-life cell, a 10 s SD855 EAS cell of a noisy
// 6-thread sinusoid and a 30 s Nexus 5 game cell.
func TestTraceSizeGuard(t *testing.T) {
	sinusoid := WorkloadFactory{Name: "sinusoid", New: func() ([]workload.Workload, error) {
		w, err := workload.NewSinusoid("noisy", 6, 1.5e9, 0.6, 2*time.Second, 0.3)
		return []workload.Workload{w}, err
	}}
	cells := map[string]Cell{
		"dayinlife": {Platform: platform.Nexus5(), Policy: Policy("mobicore"), Workload: scenarioFactory("dayinlife"), Seed: 1, Duration: 30 * time.Second},
		"noisy":     {Platform: platform.SD855(), Policy: Policy("mobicore"), Workload: sinusoid, Placer: sim.PlacerEAS, Seed: 1, Duration: 10 * time.Second},
		"game":      {Platform: platform.Nexus5(), Policy: Policy("mobicore"), Workload: gameFactory(t), Seed: 1, Duration: 30 * time.Second},
	}
	for name, c := range cells {
		t.Run(name, func(t *testing.T) {
			calls := sessionTraceCalls(t, c)
			dir := t.TempDir()
			if _, err := writeTrace(t, dir, "got", nil, calls); err != nil {
				t.Fatal(err)
			}
			ref := filepath.Join(dir, "reference.jsonl.gz")
			if err := writeReferenceTrace(t, ref, calls); err != nil {
				t.Fatal(err)
			}
			got, want := fileSize(t, filepath.Join(dir, TraceFileName("got"))), fileSize(t, ref)
			ratio := float64(got) / float64(want)
			t.Logf("%d ticks: %.3f bytes/tick, reference %.3f (%.3f×)", len(calls), float64(got)/float64(len(calls)), float64(want)/float64(len(calls)), ratio)
			if ratio > 1.3 {
				t.Errorf("trace is %.3f× the level-%d reference's size, want ≤ 1.3×", ratio, referenceGzipLevel)
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
