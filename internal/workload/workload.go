// Package workload defines the demand side of the simulation: generators
// that deposit cycle debt into scheduler threads each tick. It includes the
// reproduction of the thesis' "in-house kernel application" — configurable
// busy loops with no memory accesses and a ~40 ms idle period per iteration
// (§3.1) — plus scripted shapes used by tests and experiments.
package workload

import (
	"math/rand"
	"time"

	"mobicore/internal/sched"
)

// Workload produces demand over simulated time. Implementations are driven
// by the simulation loop and must be deterministic given the same rng.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Tick advances the workload by dt at simulation time now, depositing
	// any new demand into its threads. rng is the simulation's seeded
	// source; implementations must use it for all randomness. It is valid
	// only during the call: the engine reseeds it for its next session, so
	// a workload must not keep it past Tick.
	Tick(now, dt time.Duration, rng *rand.Rand)
	// Threads returns the workload's schedulable threads. The slice is
	// append-only: existing entries are stable for the whole run, and
	// implementations that spawn threads mid-run (phase fan-out) may
	// grow it between Ticks — the engine re-reads it every tick.
	Threads() []*sched.Thread
	// Done reports whether a finite workload has produced all its work
	// and seen it executed. Open-ended workloads always return false.
	Done() bool
}

// SteadyHinter is an optional Workload refinement for the engine's
// quiescent-tick fast path. After each Tick the workload reports whether
// that Tick left demand untouched: no thread gained or shed pending cycles
// and the thread set did not change (scheduler execution draining threads
// does not count — only the workload's own deposits). When every workload in
// a session hints steady, the engine skips the per-thread runnable-set
// compare; workloads whose demand depends on randomness or frame pacing
// simply do not implement the interface and fall back to the full compare.
// A workload must only return true when the contract genuinely holds — the
// engine trusts the hint.
type SteadyHinter interface {
	// SteadyHint reports whether the most recent Tick changed no demand.
	SteadyHint() bool
}

// ExecutedCycles sums executed cycles across a workload's threads.
func ExecutedCycles(w Workload) float64 {
	var total float64
	for _, t := range w.Threads() {
		total += t.Executed()
	}
	return total
}

// PendingCycles sums queued cycles across a workload's threads.
func PendingCycles(w Workload) float64 {
	var total float64
	for _, t := range w.Threads() {
		total += t.Pending()
	}
	return total
}
