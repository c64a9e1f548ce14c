package fleet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mobicore/internal/fleet/store"
)

// TraceSample is one line of a per-cell power-trace export: one
// integration tick's power sample. Each line is byte-for-byte
// encoding/json's encoding of a TraceSample followed by a newline.
type TraceSample struct {
	// TSec is the tick's start time in simulated seconds.
	TSec float64 `json:"t_s"`
	// DtSec is the tick length in seconds.
	DtSec float64 `json:"dt_s"`
	// SystemW is the total system power over the tick; integrating
	// SystemW·DtSec across a trace reproduces the cell's EnergyJ.
	SystemW float64 `json:"system_w"`
	// ClusterW is each cluster's share (cores + uncore, platform floor
	// excluded), indexed like the platform's ClusterSpecs.
	ClusterW []float64 `json:"cluster_w"`
}

// TraceFileName returns the trace file a cell key exports to.
func TraceFileName(key string) string { return key + ".trace.jsonl.gz" }

// traceWriter streams TraceSamples to a gzip JSONL file through a
// lineDeflater. Write errors are latched and surfaced at Close, because
// the sim's trace hook has no error return.
//
// Each line is assembled by appending: `{"t_s":` plus the tick's time plus
// a cached tail holding the rest of the line. The tail is reformatted only
// when its inputs change, which on a quiescent session (where the memo
// fast path replays the previous tick's power) is rarely; while it holds,
// the deflater is told the line ends like the one before.
type traceWriter struct {
	f *os.File
	lineDeflater
	// tail is `,"dt_s":…,"system_w":…,"cluster_w":[…]}` plus a newline,
	// encoded from tailIn = [dt, systemW, clusterW...]; tailNil records
	// whether clusterW was nil. An empty tailIn means no tail is cached.
	tail    []byte
	tailIn  []float64
	tailNil bool
	path    string
}

// newTraceWriter creates <dir>/<key>.trace.jsonl.gz for writing. Passing
// the worker's previous (closed or aborted) writer as recycle reuses its
// line and output buffers for the new file.
func newTraceWriter(dir, key string, recycle *traceWriter) (*traceWriter, error) {
	path := filepath.Join(dir, TraceFileName(key))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: creating trace %s: %w", path, err)
	}
	tw := recycle
	if tw == nil {
		tw = &traceWriter{}
	}
	tw.f, tw.path = f, path
	tw.tailIn = tw.tailIn[:0]
	tw.reset(f)
	return tw, nil
}

// hook is the sim.SessionSpec.PowerTrace adapter. The cluster slice is the
// engine's reused scratch; it is read synchronously, so no copy is needed.
//
//mobicore:hotpath
func (tw *traceWriter) hook(now, dt time.Duration, systemW float64, clusterW []float64) {
	tw.sample(now, dt.Seconds(), systemW, clusterW)
}

// sample encodes one TraceSample line, with t_s = now.Seconds(), into the
// batch. A NaN or infinite value latches an error, as encoding/json
// refuses to encode one.
//
//mobicore:hotpath
func (tw *traceWriter) sample(now time.Duration, dt, systemW float64, clusterW []float64) {
	if tw.err != nil {
		return
	}
	same := len(tw.tail)
	if !tw.tailMatches(dt, systemW, clusterW) {
		if tw.err = tw.setTail(dt, systemW, clusterW); tw.err != nil {
			return
		}
		same = 0
	}
	//mobilint:ignore append into the writer's reused batch buffer; capacity amortizes across ticks and cells
	tw.batch = append(tw.batch, `{"t_s":`...)
	tw.batch = appendSeconds(tw.batch, now)
	tw.batch = append(tw.batch, tw.tail...) //mobilint:ignore append into the reused batch buffer, as above
	tw.endLine(same)
}

// pow10 holds 10^k for the scales appendSeconds writes; each is exact.
var pow10 = [10]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// appendSeconds appends exactly store.AppendJSONFloat(b, d.Seconds()),
// without strconv when it can. For 1 µs ≤ d < 1e15 ns, d's nanoseconds
// with trailing zeros stripped are a decimal m·10^-k of at most 15
// significant digits. When one IEEE division of the exact float64(m) by
// the exact 10^k equals d.Seconds(), that decimal parses back to
// d.Seconds(); and a float64's rounding interval holds at most one decimal
// of 15 or fewer significant digits, so it is the shortest round-trip
// form strconv would write, in 'f' format since it is at least 1e-6.
// Every other duration, including the few whose Seconds() rounds away
// from the decimal, takes the strconv path.
//
//mobicore:hotpath
func appendSeconds(b []byte, d time.Duration) []byte {
	ns := int64(d)
	if ns < 1000 || ns >= 1e15 {
		return store.AppendJSONFloat(b, d.Seconds())
	}
	m, k := ns, 9
	for k > 0 && m%10 == 0 {
		m /= 10
		k--
	}
	if float64(m)/pow10[k] != d.Seconds() {
		return store.AppendJSONFloat(b, d.Seconds())
	}
	// At most 17 bytes: 15 digits and a point, or "0." and 9 decimals.
	var buf [24]byte
	i := len(buf)
	for j := 0; j < k; j++ {
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
	}
	if k > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
		if m == 0 {
			break
		}
	}
	return append(b, buf[i:]...) //mobilint:ignore b is the writer's reused batch buffer, as in sample
}

// tailMatches reports whether the cached tail was encoded from exactly
// these inputs. Values compare by bit pattern, so -0 and +0 differ (their
// encodings do) and a NaN never matches a cached tail (none is cached).
func (tw *traceWriter) tailMatches(dt, systemW float64, clusterW []float64) bool {
	in := tw.tailIn
	if len(in) != 2+len(clusterW) || tw.tailNil != (clusterW == nil) ||
		math.Float64bits(in[0]) != math.Float64bits(dt) ||
		math.Float64bits(in[1]) != math.Float64bits(systemW) {
		return false
	}
	for i, w := range clusterW {
		if math.Float64bits(in[2+i]) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// setTail encodes and caches the tail for these inputs, reusing the
// writer's buffers.
func (tw *traceWriter) setTail(dt, systemW float64, clusterW []float64) error {
	tw.tailIn = append(tw.tailIn[:0], dt, systemW)
	tw.tailIn = append(tw.tailIn, clusterW...)
	for _, x := range tw.tailIn {
		if !finite(x) {
			tw.tailIn = tw.tailIn[:0]
			return unsupportedValue(x)
		}
	}
	tw.tailNil = clusterW == nil
	b := append(tw.tail[:0], `,"dt_s":`...)
	b = store.AppendJSONFloat(b, dt)
	b = append(b, `,"system_w":`...)
	b = store.AppendJSONFloat(b, systemW)
	b = append(b, `,"cluster_w":`...)
	if clusterW == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, w := range clusterW {
			if i > 0 {
				b = append(b, ',')
			}
			b = store.AppendJSONFloat(b, w)
		}
		b = append(b, ']')
	}
	tw.tail = append(b, "}\n"...)
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func unsupportedValue(x float64) error {
	return fmt.Errorf("unsupported trace value %s", strconv.FormatFloat(x, 'g', -1, 64))
}

// Abort closes and deletes the trace — the path for sessions that ended
// early (cancellation, cell failure), whose partial trace would otherwise
// pass for a complete shorter run. Pending output is never written; the
// next newTraceWriter on this writer drops it.
func (tw *traceWriter) Abort() {
	tw.f.Close()
	os.Remove(tw.path)
}

// Close finishes the gzip member and closes the trace, returning the
// first error from any stage. On error the partial file is removed — a
// truncated trace is worse than no trace.
func (tw *traceWriter) Close() error {
	err := tw.err
	if err == nil {
		err = tw.close()
	}
	if e := tw.f.Close(); err == nil {
		err = e
	}
	if err != nil {
		os.Remove(tw.path)
		return fmt.Errorf("fleet: writing trace %s: %w", tw.path, err)
	}
	return nil
}
