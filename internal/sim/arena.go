package sim

import "mobicore/internal/metrics"

// Arena is a cross-session reuse pool for the engine's buffers: the sampled
// series, scheduler scratch, policy-input slices, the power monitor's
// trace, and every per-cluster accumulator. A fleet worker owns
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

// resize returns b resized to length n with every element zeroed, keeping
// the backing array whenever it is large enough — the arena-reset
// primitive newSim applies to every Sim field. It grows only on first use
// or when a larger topology arrives (the growth branch is cold;
// steady-state arena reuse never allocates).
//
//mobicore:hotpath
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		//mobilint:ignore one-time arena growth; steady-state reuse hits the resize path
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
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
