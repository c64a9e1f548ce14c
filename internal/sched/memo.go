package sched

import (
	"fmt"
	"time"

	"mobicore/internal/soc"
)

// MemoRing is how many recent scheduling windows a Memo retains. One
// retained window serves truly quiescent stretches; the ring exists for
// periodic schedules. Under oversubscription — more saturated runnable
// threads than online cores — the scheduler serves the top-debt threads
// each window, their debts fall behind the unserved ones, and the window
// rotates through the thread set with period N/gcd(N,K) for N threads on K
// cores. Each phase of the rotation is itself a fixed point (the affinity
// and order checks discriminate phases), so retaining the last few windows
// lets every phase replay against its own record. Four slots cover all
// rotations of the 4-thread reference workloads; longer periods fall back
// to the slow path, never to wrong output.
const MemoRing = 4

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

// memoWin is one retained scheduling window: per-thread grants, the
// busy-seconds vector, the batched cycle commit, plus the input fingerprint
// needed to prove a later window would reproduce it bit for bit.
type memoWin struct {
	valid   bool
	drained bool // starved-pool window: zero grants, every budget throttled
	limited bool // recorded against a finite bandwidth pool
	// verified is the window sequence number at which this slot's runnable
	// set was last proven equal to the live set (at record, and on every
	// successful match). A steady hint may skip the set comparison only
	// when every window since this verification carried the hint — each
	// hint vouches one tick of no demand change, so an unbroken streak of
	// them extends the proof from the verification point to now.
	verified  int64
	dtSec     float64 // recorded window length (seconds)
	satCycles float64 // saturation ceiling: capacity any core could offer
	poolUsed  float64
	executed  float64
	throttled float64 // quota-denied seconds (non-zero only for drained windows)
	entries   []memoEntry
	busySec   []float64
	nanos     []uint64 // clamped per-core busy nanos for the batched commit
	capped    []bool   // pressure fingerprint at record
	capScale  []float64
	prGen     uint64 // pressure generation tag at record (0 when untagged)
}

// Memo retains the last MemoRing scheduling windows' complete outcomes.
// The simulation's quiescent-tick fast path records a window on each full
// scheduling pass and replays a retained one (ReplayInto) on every
// subsequent tick whose inputs still match it (Match), skipping
// snapshotting, sorting, and placement entirely while leaving thread state,
// cycle accounting, and every float result byte-identical to the slow path.
//
// Match proves the thread-side inputs (runnable set, debts, affinity,
// pressure caps, pool headroom) unchanged. The CPU-side inputs —
// programmed frequencies and the online mask — follow one rule: the owner
// calls Invalidate whenever they move. The simulation does so on every
// core reprogram and every online-state change, trusting its
// applied-frequency mirror in between; a policy decision that moves
// neither keeps every retained window.
//
// The zero value is an empty memo ready for use. A Memo retains thread
// pointers and is not safe for concurrent use; each Scheduler owner keeps
// its own.
type Memo struct {
	next  int   // ring slot the next recording scribbles on
	last  int   // slot of the most recent armed recording
	hint  int   // ring slot of the most recent successful Match
	armed bool  // whether the latest begin..finish pass armed its slot
	seq   int64 // window sequence number, bumped once per Match call (one per tick)
	// steadySince is the first sequence number of the current unbroken run
	// of steady windows (0 while the run is broken). A slot verified at or
	// before the run's start has had every subsequent tick vouched
	// demand-free, so its runnable set is still proven current.
	steadySince int64
	wins        [MemoRing]memoWin
}

// Armed reports whether the most recent recording pass retained a
// replayable window; ArmedSlot identifies it. The owner captures its fused
// integration tail under the same slot index.
func (m *Memo) Armed() bool { return m.armed }

// ArmedSlot returns the ring slot of the most recent armed recording.
// Meaningful only while Armed reports true.
func (m *Memo) ArmedSlot() int { return m.last }

// Invalidate drops every retained window. The next ScheduleRecordInto call
// re-records.
//
//mobicore:hotpath
func (m *Memo) Invalidate() {
	for i := range m.wins {
		m.wins[i].valid = false
	}
	m.armed = false
}

// Recycle returns the memo reset for a new session, keeping every slot's
// buffer capacity.
func (m *Memo) Recycle() Memo {
	r := *m
	for i := range r.wins {
		w := &r.wins[i]
		w.valid, w.drained = false, false
		w.entries = w.entries[:0]
		w.busySec = w.busySec[:0]
		w.nanos = w.nanos[:0]
		w.capped = w.capped[:0]
		w.capScale = w.capScale[:0]
		w.dtSec, w.satCycles, w.poolUsed, w.executed, w.throttled = 0, 0, 0, 0, 0
		w.verified = 0
	}
	r.next, r.last, r.hint, r.armed, r.seq, r.steadySince = 0, 0, 0, false, 0, 0
	return r
}

// begin opens a recording in the next ring slot: that slot is invalid until
// finish arms it (evicting whatever window it held — the ring trades one
// retained phase for the fresher record). satRate is the capacity ceiling
// in cycles/sec — at least every core's programmed frequency and every
// domain's top capacity — above which a thread's placement is
// debt-independent (callers pass the platform's global ladder top).
//
//mobicore:hotpath
func (m *Memo) begin(dt time.Duration, satRate float64) {
	w := &m.wins[m.next]
	w.valid = false
	w.dtSec = dt.Seconds()
	w.satCycles = satRate * w.dtSec
	w.entries = w.entries[:0]
	m.armed = false
}

// record appends one placed (or passed-over) thread to the open recording.
//
//mobicore:hotpath
func (m *Memo) record(t *Thread, lastCore, core int, granted, pending float64) {
	w := &m.wins[m.next]
	//mobilint:ignore append into pooled memo entries; capacity amortizes across windows
	w.entries = append(w.entries, memoEntry{
		t:         t,
		lastCore:  lastCore,
		core:      core,
		granted:   granted,
		pending:   pending,
		saturated: pending > w.satCycles,
	})
}

// finish arms the open recording when the window is replayable, advancing
// the ring. Two regimes qualify: the granted window — the bandwidth pool
// never clamped a grant (a full window of slack remained, so any later pool
// at least that healthy grants identically) and no runnable time was
// throttled — and the starved window, where the pool was empty before the
// first grant, so nothing executed and every online budget was throttled,
// an outcome independent of debts, ordering, and pressure. It fingerprints
// the thermal-pressure view alongside.
//
//mobicore:hotpath
func (m *Memo) finish(res Result, nanos []uint64, pr Pressure, limited bool, poolLeft float64) {
	w := &m.wins[m.next]
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
	} else if limited && poolLeft < w.dtSec {
		// The pool influenced (or was one thread away from influencing)
		// the grants; replaying under a different pool could diverge.
		return
	}
	w.drained = drained
	w.limited = limited
	w.throttled = res.ThrottledSeconds
	w.poolUsed = res.PoolUsedSec
	w.executed = res.ExecutedCycles
	w.busySec = f64Into(w.busySec, res.BusySeconds)
	w.nanos = u64Into(w.nanos, nanos)
	w.capped = boolInto(w.capped, pr.Capped)
	w.capScale = f64Into(w.capScale, pr.CapScale)
	w.prGen = pr.Gen
	w.verified = m.seq
	w.valid = true
	m.armed = true
	m.last = m.next
	m.next = (m.next + 1) % MemoRing
}

// Match scans the retained windows and returns the ring slot of one that a
// fresh scheduling pass over threads would reproduce bit for bit under the
// given pool and pressure view, or -1. Call it exactly once per scheduling
// window: it advances the sequence clock the per-slot set verification
// leans on. steady asserts (on the workloads' authority — the SteadyHint
// contract) that no demand changed since the previous tick; a streak of
// such windows lets the runnable-set comparison be skipped for any slot
// verified before the streak began, because every tick separating the
// verification from now has been vouched demand-free. A slot verified
// before that must be re-proven by the counting scan. The caller separately
// guarantees unchanged core frequencies and online states.
//
// Probe order is a latency heuristic only: rotations advance one ring slot
// per window, so the slot after the last hit is tried first, then the last
// hit itself (the quiescent case), then the rest most recent first. When
// several slots match they hold byte-identical outcomes — each match is a
// proof that the slot equals the unique slow-path result — so any probe
// order returns an equally correct index.
//
//mobicore:hotpath
func (m *Memo) Match(threads []*Thread, steady bool, poolSec float64, pr Pressure) int {
	m.seq++
	if steady {
		if m.steadySince == 0 {
			m.steadySince = m.seq
		}
	} else {
		m.steadySince = 0
	}
	var order [MemoRing]int
	order[0] = (m.hint + 1) % MemoRing
	order[1] = m.hint
	n := 2
	for off := 1; off <= MemoRing; off++ {
		idx := (m.next - off + MemoRing) % MemoRing
		if idx != order[0] && idx != order[1] {
			order[n] = idx
			n++
		}
	}
	runnable := -1 // live runnable population, counted once on first need
	for _, idx := range order[:n] {
		w := &m.wins[idx]
		if !w.valid {
			continue
		}
		trusted := m.steadySince != 0 && w.verified >= m.steadySince-1
		if !trusted && runnable < 0 {
			runnable = 0
			for _, t := range threads {
				if t != nil && t.Runnable() {
					runnable++
				}
			}
		}
		if matchWin(w, threads, trusted, runnable, poolSec, pr) {
			w.verified = m.seq
			m.hint = idx
			return idx
		}
	}
	return -1
}

// matchWin checks one retained window against the current inputs. trusted
// reports that the window's runnable set is proven current — the steady
// hint combined with an unbroken verification chain — so the set scans can
// be skipped. runnable is the live runnable-thread count, shared across the
// ring scan (ignored while trusted).
//
//mobicore:hotpath
func matchWin(w *memoWin, threads []*Thread, trusted bool, runnable int, poolSec float64, pr Pressure) bool {
	if w.drained {
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
		return trusted || runnable > 0
	}
	// Pool regime must match before headroom means anything: a window
	// recorded against an unbounded pool reports zero consumption, so
	// replaying it under a finite pool would leave that pool undrained —
	// corrupting the accounting the next windows schedule against — and a
	// finite-pool record replayed unlimited would drain a pool that does
	// not exist.
	if w.limited != (poolSec >= 0) {
		return false
	}
	// Pool headroom: with a full window of slack beyond the recorded
	// consumption, no grant can hit the pool, so the grants replay exactly.
	if w.limited && poolSec < w.poolUsed+w.dtSec {
		return false
	}
	// Thermal pressure must be unchanged: a cap engaging, releasing, or
	// deepening re-derates capacity and can move placements. A matching
	// nonzero generation tag proves the tagged view untouched since the
	// record; otherwise compare the elements.
	if pr.Gen == 0 || pr.Gen != w.prGen {
		if len(pr.Capped) != len(w.capped) || len(pr.CapScale) != len(w.capScale) {
			return false
		}
		for i, c := range pr.Capped {
			if c != w.capped[i] {
				return false
			}
		}
		for i, v := range pr.CapScale {
			if v != w.capScale[i] {
				return false
			}
		}
	}
	// Set equality, half one: the runnable population must match the entry
	// count. The entry loop below proves the other half — every recorded
	// thread still runnable — and distinct entries plus equal counts force
	// the sets equal.
	if !trusted && runnable != len(w.entries) {
		return false
	}
	for i := range w.entries {
		e := &w.entries[i]
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
				if t.pending <= w.satCycles {
					return false
				}
			} else if t.pending != e.pending {
				return false
			}
		}
		// Order: the recorded sequence must remain the unique descending
		// debt order (names breaking ties strictly), so the stable sort
		// reproduces exactly this permutation from any gather order.
		if i+1 < len(w.entries) {
			n := w.entries[i+1].t
			if t.pending < n.pending || (t.pending == n.pending && t.name >= n.name) {
				return false
			}
		}
	}
	return true
}

// ReplayInto re-applies the retained window in ring slot idx: each thread
// drains its recorded grant on its recorded core, the busy-seconds vector
// is copied into busy, and the batched cycle commit runs against cpu —
// byte-identical side effects and Result to the full scheduling pass whose
// inputs Match verified. The returned Result aliases busy, like
// ScheduleThermalInto.
//
//mobicore:hotpath
func (m *Memo) ReplayInto(idx int, busy []float64, cpu *soc.CPU, dt time.Duration) (Result, error) {
	w := &m.wins[idx]
	if cap(busy) < len(w.busySec) {
		//mobilint:ignore one Result slice per window when the caller passes no buffer
		busy = make([]float64, len(w.busySec))
	}
	busy = busy[:len(w.busySec)]
	copy(busy, w.busySec)
	for i := range w.entries {
		e := &w.entries[i]
		if e.core >= 0 && e.granted > 0 {
			e.t.Execute(e.granted, e.core)
		}
	}
	if err := cpu.RunBatch(w.nanos, uint64(dt.Nanoseconds())); err != nil {
		return Result{}, fmt.Errorf("sched: committing window: %w", err)
	}
	return Result{
		BusySeconds:      busy,
		ExecutedCycles:   w.executed,
		ThrottledSeconds: w.throttled,
		PoolUsedSec:      w.poolUsed,
	}, nil
}

// The copy helpers below refresh a memo buffer from a source slice, keeping
// the backing array whenever it is large enough (the growth branches are
// cold; steady-state recording never allocates).

//mobicore:hotpath
func f64Into(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		//mobilint:ignore one-time memo growth; steady-state recording reuses capacity
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

//mobicore:hotpath
func u64Into(dst, src []uint64) []uint64 {
	if cap(dst) < len(src) {
		//mobilint:ignore one-time memo growth; steady-state recording reuses capacity
		dst = make([]uint64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

//mobicore:hotpath
func boolInto(dst, src []bool) []bool {
	if cap(dst) < len(src) {
		//mobilint:ignore one-time memo growth; steady-state recording reuses capacity
		dst = make([]bool, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}
