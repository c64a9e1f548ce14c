package sched

import (
	"time"

	"mobicore/internal/soc"
)

// memoEntry is one thread's recorded share of a scheduling window: where it
// stood when the window opened and what the window granted it.
type memoEntry struct {
	t        *Thread
	lastCore int     // affinity at window start (pre-placement)
	core     int     // placed core, -1 when no core had budget
	granted  float64 // cycles drained by the window
	pending  float64 // cycle debt at window start
	// saturated marks a debt above the capacity ceiling: every placer
	// comparison against pending ("does this candidate fully serve the
	// thread?") resolves the same way for any debt above the ceiling, so
	// the placement decision is debt-independent and the memo stays valid
	// while the thread keeps a deep backlog. Unsaturated entries instead
	// require an exactly unchanged debt.
	saturated bool
}

// Memo retains the most recent scheduling window's complete outcome: the
// per-thread grants and the busy-seconds vector, plus the input
// fingerprint needed to prove a later window would reproduce it bit for
// bit. The simulation's quiescent-tick fast path records a window
// on the full scheduling passes its recording backoff allows (all of them
// until a streak of passes goes without a replay, then a few per cycle)
// and replays it (ReplayInto) on every subsequent tick whose inputs still
// match it (Match), skipping sorting and placement entirely
// while leaving thread state and every float result byte-identical to the
// slow path.
//
// Match proves the thread-side inputs (runnable set, debts, affinity,
// pressure caps, pool headroom) unchanged. The CPU-side inputs —
// programmed frequencies and the online mask — follow one rule: the window
// holds only while the CPU's change signal (soc.CPU.Gen) reads what it read
// when the window was recorded, so any core reprogram or online-state
// change drops it, and a policy decision that moves neither keeps it.
//
// Every recording pass drops the held window before it records, so the
// window is valid only when the latest recording pass armed it. An owner
// that caches per-window results alongside (the simulation's integration
// tail) and overwrites them on every full pass must therefore Invalidate
// the memo on each full pass it does not record.
//
// The zero value is an empty memo ready for use. A Memo retains thread
// pointers and is not safe for concurrent use; each Scheduler owner keeps
// its own.
type Memo struct {
	valid   bool
	drained bool // starved-pool window: zero grants, every budget throttled
	limited bool // recorded against a finite bandwidth pool
	// verified is the window sequence number at which the runnable set was
	// last proven equal to the live set (at record, and on every
	// successful match). A steady hint may skip the set comparison only
	// when every window since this verification carried the hint — each
	// hint vouches one tick of no demand change, so an unbroken streak of
	// them extends the proof from the verification point to now.
	verified int64
	seq      int64 // window sequence number, bumped once per Match call (one per tick)
	// steadySince is the first sequence number of the current unbroken run
	// of steady windows (0 while the run is broken). A window verified at
	// or before the run's start has had every subsequent tick vouched
	// demand-free, so its runnable set is still proven current.
	steadySince int64
	cpuGen      uint64  // the CPU's change signal at record
	dtSec       float64 // recorded window length (seconds)
	satCycles   float64 // saturation ceiling: capacity any core could offer
	poolUsed    float64
	executed    float64
	throttled   float64 // quota-denied seconds (non-zero only for drained windows)
	entries     []memoEntry
	busySec     []float64
	capped      []bool // pressure fingerprint at record
	capScale    []float64
}

// Invalidate drops the retained window. The next recording pass
// re-records.
//
//mobicore:hotpath
func (m *Memo) Invalidate() { m.valid = false }

// Recycle returns the memo reset for a new session, keeping every buffer's
// capacity.
func (m *Memo) Recycle() Memo {
	return Memo{
		entries:  m.entries[:0],
		busySec:  m.busySec[:0],
		capped:   m.capped[:0],
		capScale: m.capScale[:0],
	}
}

// begin opens a recording on a CPU whose change signal reads cpuGen,
// dropping the held window until finish arms the new one. satRate is the
// capacity ceiling in cycles/sec — at least every core's programmed
// frequency and every domain's top capacity — above which a thread's
// placement is debt-independent (callers pass the platform's global
// ladder top).
//
//mobicore:hotpath
func (m *Memo) begin(dt time.Duration, satRate float64, cpuGen uint64) {
	m.valid = false
	m.cpuGen = cpuGen
	m.dtSec = dt.Seconds()
	m.satCycles = satRate * m.dtSec
	m.entries = m.entries[:0]
}

// record appends one placed (or passed-over) thread to the open recording.
//
//mobicore:hotpath
func (m *Memo) record(t *Thread, lastCore, core int, granted, pending float64) {
	//mobilint:ignore append into pooled memo entries; capacity amortizes across windows
	m.entries = append(m.entries, memoEntry{
		t:         t,
		lastCore:  lastCore,
		core:      core,
		granted:   granted,
		pending:   pending,
		saturated: pending > m.satCycles,
	})
}

// finish arms the open recording when the window is replayable. Two regimes
// qualify: the granted window — the bandwidth pool never clamped a grant (a
// full window of slack remained, so any later pool at least that healthy
// grants identically) and no runnable time was throttled — and the starved
// window, where the pool was empty before the first grant, so nothing
// executed and every online budget was throttled, an outcome independent of
// debts, ordering, and pressure. It fingerprints the thermal-pressure view
// alongside.
//
//mobicore:hotpath
func (m *Memo) finish(res Result, pr Pressure, limited bool, poolLeft float64) {
	drained := false
	if res.ThrottledSeconds != 0 {
		// Throttling replays only in the fully starved regime: the pool
		// was exhausted at window start (nothing was granted, so poolLeft
		// is the untouched entry pool). A mid-window clamp leaves
		// PoolUsedSec non-zero and stays unarmed — replaying it under a
		// different pool would diverge.
		if !limited || poolLeft > 0 || res.PoolUsedSec != 0 {
			return
		}
		drained = true
	} else if limited && poolLeft < m.dtSec {
		// The pool influenced (or was one thread away from influencing)
		// the grants; replaying under a different pool could diverge.
		return
	}
	m.drained = drained
	m.limited = limited
	m.throttled = res.ThrottledSeconds
	m.poolUsed = res.PoolUsedSec
	m.executed = res.ExecutedCycles
	m.busySec = copyInto(m.busySec, res.BusySeconds)
	m.capped = copyInto(m.capped, pr.Capped)
	m.capScale = copyInto(m.capScale, pr.CapScale)
	m.verified = m.seq
	m.valid = true
}

// Match reports whether a fresh scheduling pass over threads on cpu (the
// CPU the window was recorded on) would reproduce the retained window bit
// for bit under the given pool and pressure view: no core's frequency or
// online state moved since the recording, and the thread-side inputs
// match. Call it exactly once per scheduling window: it advances
// the sequence clock the set verification leans on. steady asserts (on the
// workloads' authority — the SteadyHint contract) that no demand changed
// since the previous tick; a streak of such windows lets the runnable-set
// comparison be skipped when the window was verified before the streak
// began, because every tick separating the verification from now has been
// vouched demand-free. A window verified before that must be re-proven by
// the counting scan.
//
//mobicore:hotpath
func (m *Memo) Match(cpu *soc.CPU, threads []*Thread, steady bool, poolSec float64, pr Pressure) bool {
	m.seq++
	if steady {
		if m.steadySince == 0 {
			m.steadySince = m.seq
		}
	} else {
		m.steadySince = 0
	}
	if !m.valid || cpu.Gen() != m.cpuGen {
		return false
	}
	trusted := m.steadySince != 0 && m.verified >= m.steadySince-1
	if !m.matches(threads, trusted, poolSec, pr) {
		return false
	}
	m.verified = m.seq
	return true
}

// matches checks the retained window against the current inputs. trusted
// reports that the window's runnable set is proven current — the steady
// hint combined with an unbroken verification chain — so the set scans can
// be skipped.
//
//mobicore:hotpath
func (m *Memo) matches(threads []*Thread, trusted bool, poolSec float64, pr Pressure) bool {
	if m.drained {
		// Starved pool: the recorded window granted nothing and throttled
		// every online budget. Any window whose pool is still exactly
		// empty reproduces that outcome whatever the debts, ordering, or
		// pressure — grants can't happen, so demand can't move — provided
		// runnable backlog remains (an empty runnable set throttles
		// nothing). steady freezes the runnable set by contract; without
		// it one live thread suffices.
		if poolSec != 0 {
			return false
		}
		return trusted || countRunnable(threads) > 0
	}
	// Pool regime must match before headroom means anything: a window
	// recorded against an unbounded pool reports zero consumption, so
	// replaying it under a finite pool would leave that pool undrained —
	// corrupting the accounting the next windows schedule against — and a
	// finite-pool record replayed unlimited would drain a pool that does
	// not exist.
	if m.limited != (poolSec >= 0) {
		return false
	}
	// Pool headroom: with a full window of slack beyond the recorded
	// consumption, no grant can hit the pool, so the grants replay exactly.
	if m.limited && poolSec < m.poolUsed+m.dtSec {
		return false
	}
	// Thermal pressure must be unchanged: a cap engaging, releasing, or
	// deepening re-derates capacity and can move placements.
	if len(pr.Capped) != len(m.capped) || len(pr.CapScale) != len(m.capScale) {
		return false
	}
	for i, c := range pr.Capped {
		if c != m.capped[i] {
			return false
		}
	}
	for i, v := range pr.CapScale {
		if v != m.capScale[i] {
			return false
		}
	}
	// Set equality, half one: the runnable population must match the entry
	// count. The entry loop below proves the other half — every recorded
	// thread still runnable — and distinct entries plus equal counts force
	// the sets equal.
	if !trusted && countRunnable(threads) != len(m.entries) {
		return false
	}
	for i := range m.entries {
		e := &m.entries[i]
		t := e.t
		if !trusted && !t.Runnable() {
			return false
		}
		// Affinity input: a thread that migrated on the recorded window
		// resumes elsewhere, so the placement inputs changed.
		if t.lastCore != e.lastCore {
			return false
		}
		if e.core >= 0 {
			if e.saturated {
				// Deep backlog: any debt above the ceiling places and
				// grants identically (the grant was capacity-limited).
				if t.pending <= m.satCycles {
					return false
				}
			} else if t.pending != e.pending {
				return false
			}
		}
		// Order: the recorded sequence must remain the unique descending
		// debt order (names breaking ties strictly), so the stable sort
		// reproduces exactly this permutation from any gather order.
		if i+1 < len(m.entries) {
			n := m.entries[i+1].t
			if t.pending < n.pending || (t.pending == n.pending && t.name >= n.name) {
				return false
			}
		}
	}
	return true
}

// countRunnable counts the live runnable threads.
//
//mobicore:hotpath
func countRunnable(threads []*Thread) int {
	n := 0
	for _, t := range threads {
		if t != nil && t.Runnable() {
			n++
		}
	}
	return n
}

// ReplayInto re-applies the retained window: each thread drains its
// recorded grant on its recorded core and the busy-seconds vector is copied
// into busy — byte-identical side effects and Result to the full scheduling
// pass whose inputs Match verified. The returned Result aliases busy, like
// Schedule.
//
//mobicore:hotpath
func (m *Memo) ReplayInto(busy []float64) Result {
	busy = copyInto(busy, m.busySec)
	for i := range m.entries {
		e := &m.entries[i]
		if e.core >= 0 && e.granted > 0 {
			e.t.Execute(e.granted, e.core)
		}
	}
	return Result{
		BusySeconds:      busy,
		ExecutedCycles:   m.executed,
		ThrottledSeconds: m.throttled,
		PoolUsedSec:      m.poolUsed,
	}
}

// copyInto refreshes dst from src, keeping the backing array whenever it is
// large enough (the growth branch is cold; steady-state recording and
// replay never allocate).
//
//mobicore:hotpath
func copyInto[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		//mobilint:ignore one-time memo growth; steady-state recording reuses capacity
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}
