package sim

import (
	"mobicore/internal/metrics"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// Arena is a cross-session reuse pool for the engine's buffers: the sampled
// series, CPU snapshots, scheduler scratch, policy-input slices, the power
// monitor's trace, and every per-cluster accumulator. A fleet worker owns
// one arena and threads it through consecutive cells, so steady-state cell
// execution allocates almost nothing — buffers are reset to length zero
// between sessions but keep their capacity, and series capacity is
// preallocated from the session duration (SessionSpec.NewIn) so appends
// never grow.
//
// Ownership contract: an arena backs at most one live Sim at a time.
// Constructing the next Sim from the arena reuses the previous one's
// buffers, so the caller must be completely done with the previous Sim
// first. Reports are safe to retain across that boundary — Sim.report deep
// copies every series — but the Sim itself (and its Monitor) must not be
// touched after the arena moves on. An Arena is not safe for concurrent
// use; give each worker goroutine its own.
type Arena struct {
	sim Sim
}

// NewArena returns an empty arena. The first session built in it allocates
// its buffers normally; later sessions reuse them.
func NewArena() *Arena {
	return &Arena{}
}

// take hands the arena's embedded Sim to a new session. The previous
// session's buffers ride along inside it; newSim resets every field,
// keeping only capacity.
func (a *Arena) take() *Sim {
	return &a.sim
}

// The buffer helpers below resize a pooled slice to length n, zeroing the
// contents but keeping the backing array whenever it is large enough — the
// arena-reset primitive newSim applies to every Sim field. Each grows only
// on first use or when a larger topology arrives (the growth branches are
// cold; steady-state arena reuse never allocates).

//mobicore:hotpath
func f64Buf(b []float64, n int) []float64 {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

//mobicore:hotpath
func hzBuf(b []soc.Hz, n int) []soc.Hz {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]soc.Hz, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

//mobicore:hotpath
func boolBuf(b []bool, n int) []bool {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

//mobicore:hotpath
func intBuf(b []int, n int) []int {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]int, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

//mobicore:hotpath
func snapBuf(b []soc.CoreSnapshot, n int) []soc.CoreSnapshot {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]soc.CoreSnapshot, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = soc.CoreSnapshot{}
	}
	return b
}

//mobicore:hotpath
func loadBuf(b []power.CoreLoad, n int) []power.CoreLoad {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]power.CoreLoad, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = power.CoreLoad{}
	}
	return b
}

//mobicore:hotpath
func thermalBuf(b []policy.ThermalSignal, n int) []policy.ThermalSignal {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]policy.ThermalSignal, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = policy.ThermalSignal{}
	}
	return b
}

//mobicore:hotpath
func sumBuf(b []metrics.Summary, n int) []metrics.Summary {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]metrics.Summary, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = metrics.Summary{}
	}
	return b
}

//mobicore:hotpath
func viewsBuf(b []policy.ClusterView, n int) []policy.ClusterView {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]policy.ClusterView, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = policy.ClusterView{}
	}
	return b
}

//mobicore:hotpath
func hinterBuf(b []workload.SteadyHinter, n int) []workload.SteadyHinter {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]workload.SteadyHinter, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = nil
	}
	return b
}

// seriesBuf resizes a pooled series slice, resetting each entry (length
// zero, points capacity kept). Growth copies the old entries' structs so
// their accumulated point buffers survive a cluster-count change.
func seriesBuf(b []metrics.Series, n int) []metrics.Series {
	if cap(b) < n {
		grown := make([]metrics.Series, n)
		copy(grown, b)
		b = grown
	}
	b = b[:n]
	for i := range b {
		b[i].Reset()
	}
	return b
}
