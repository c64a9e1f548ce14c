package sched

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mobicore/internal/soc"
)

// Result reports what one scheduling window executed.
type Result struct {
	// BusySeconds is per-core execution time, indexed by core id.
	BusySeconds []float64
	// ExecutedCycles is the total cycles drained from all threads.
	ExecutedCycles float64
	// ThrottledSeconds is runnable time denied by the bandwidth quota:
	// time cores could have executed pending work but the quota forbade.
	ThrottledSeconds float64
	// PoolUsedSec is the bandwidth-pool time consumed this window.
	PoolUsedSec float64
}

// UtilizationInto returns the per-core busy fraction for a window of dt,
// writing into dst when it has the capacity, so per-tick callers can reuse
// one buffer. It returns the filled slice.
//
//mobicore:hotpath
func (r Result) UtilizationInto(dst []float64, dt time.Duration) []float64 {
	if cap(dst) < len(r.BusySeconds) {
		//mobilint:ignore one-time buffer growth; steady-state callers pass a full-size buffer
		dst = make([]float64, len(r.BusySeconds))
	}
	dst = dst[:len(r.BusySeconds)]
	if dt <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	secs := dt.Seconds()
	for i, b := range r.BusySeconds {
		dst[i] = b / secs
		if dst[i] > 1 {
			dst[i] = 1
		}
	}
	return dst
}

// Scheduler load-balances threads across online cores each window. It keeps
// soft affinity (a thread prefers its previous core while that core has
// budget) and otherwise delegates placement to its Placer — by default the
// deterministic longest-processing-time greedy that stands in for the
// kernel's balancer; install an EASPlacer for energy-aware placement. The
// zero value is ready to use and places greedily.
//
// A Scheduler reuses per-window scratch buffers across calls and is
// therefore not safe for concurrent use; each Sim owns its own instance
// (the fleet driver gives every cell its own Sim).
type Scheduler struct {
	// Placer decides per-thread core placement. Nil means GreedyPlacer.
	Placer Placer

	// Per-window scratch, reused to keep the per-tick path allocation-free.
	// The env's Budget and Freq slices and its per-rank records are
	// scratch too, kept across windows; its Online slice is the CPU's own.
	runnable byDebt
	env      PlaceEnv
	// Per-CPU state, rebuilt when the CPU changes (its topology is fixed):
	// each efficiency rank's core ids (env.ranks), and the EAS placer last
	// proven to fit the CPU (EASPlacer.fits).
	cpu    *soc.CPU
	fitEAS *EASPlacer
}

// byDebt orders threads largest pending debt first, name breaking ties,
// so runs are deterministic. Pointer-receiver methods let sort.Stable
// take &s.runnable without boxing a fresh slice header per window.
type byDebt []*Thread

func (r *byDebt) Len() int           { return len(*r) }
func (r *byDebt) Swap(i, j int)      { (*r)[i], (*r)[j] = (*r)[j], (*r)[i] }
func (r *byDebt) Less(i, j int) bool { return debtLess((*r)[i], (*r)[j]) }

//mobicore:hotpath
func debtLess(a, b *Thread) bool {
	if a.pending != b.pending {
		return a.pending > b.pending
	}
	return a.name < b.name
}

// Unlimited disables the bandwidth pool for a scheduling window.
const Unlimited = -1.0

// thermalDerate scales the advertised capacity of a thermally capped core
// during placement when no headroom-aware scale is available. A capped
// cluster is not just slower now — its throttle is still stepping down, so
// capacity claimed at placement time is likely gone by the end of the
// window. Derating steers escalation and spillover toward the cool cluster
// at near-equal nominal capacity.
const thermalDerate = 0.75

// Pressure is the per-core thermal-pressure view a caller hands the
// scheduler: which cores sit behind an engaged cluster cap, and (optionally)
// how deep each cap is as a capacity fraction. Zero value means no
// pressure.
type Pressure struct {
	// Capped flags cores whose cluster currently has a thermal frequency
	// cap engaged.
	Capped []bool
	// CapScale is each core's headroom-aware capacity scale
	// (CapFreq/f_max, in (0,1] while capped, 1 while cool). Optional;
	// placers fall back to the fixed thermalDerate when nil.
	CapScale []float64
}

// placer returns the installed Placer, defaulting to the greedy.
func (s *Scheduler) placer() Placer {
	if s.Placer != nil {
		return s.Placer
	}
	return GreedyPlacer{}
}

// Schedule executes up to one window dt of work from threads on cpu's
// online cores. poolSec is the shared CPU bandwidth remaining this
// enforcement period (CFS group-quota semantics, the §4.1.1 global CPU
// bandwidth): total busy seconds across all cores this window may not
// exceed it, but any single core may run at full speed while the pool
// lasts. Pass Unlimited (or any negative value) for no cap. pr is the
// thermal-pressure view: placement treats capped cores' capacity as
// reduced and steers backlog toward cool clusters (the zero Pressure, or a
// homogeneous platform where derating is uniform, places without it).
// Schedule returns per-core busy time plus the pool time actually consumed.
//
// cpu is read, never written: each core's online flag and programmed
// frequency are the window's capacity. busy receives the per-core busy
// seconds (it is zeroed and resliced to the core count; its capacity must
// cover every core), so a per-tick caller reuses one buffer across windows
// and the scheduler allocates nothing in steady state. No core is reported
// busy for longer than dt. The returned Result aliases busy — the caller
// owns the buffer and must not reuse it until it is done with the Result.
//
// rec, when non-nil, records the window for the quiescent-tick fast path:
// the per-thread placements and grants, the busy vector, the pressure view
// and the CPU's change signal (soc.CPU.Gen). Recording first drops rec's
// held window; rec arms again only when the window is replayable — either
// no pool clamping and no throttling, or a pool drained before the first
// grant (see Memo.finish). satRate is the capacity ceiling for the
// saturation classing (see Memo.begin); callers pass the platform's top
// ladder frequency. It is ignored when rec is nil.
//
//mobicore:hotpath
func (s *Scheduler) Schedule(cpu *soc.CPU, threads []*Thread, dt time.Duration, poolSec float64, pr Pressure, busy []float64, rec *Memo, satRate float64) (Result, error) {
	if cpu == nil {
		return Result{}, errors.New("sched: nil cpu")
	}
	if dt <= 0 {
		return Result{}, errors.New("sched: non-positive window")
	}
	n := cpu.NumCores()
	if cap(busy) < n {
		return Result{}, fmt.Errorf("sched: busy buffer holds %d cores, the CPU has %d", cap(busy), n)
	}
	dts := dt.Seconds()
	busy = busy[:n]
	for i := range busy {
		busy[i] = 0
	}
	res := Result{BusySeconds: busy}

	// Efficiency ranks for cluster-aware placement: clusters ordered by
	// ascending top frequency, so rank 0 is the LITTLE (cheapest) domain.
	// Homogeneous CPUs collapse to a single rank and the greedy placement
	// reduces exactly to the original most-budget greedy.
	// The ranks are cached on the CPU at construction — this is the
	// per-tick hot path.
	rankOf, numRanks := cpu.ClusterRanks()
	if cpu != s.cpu {
		s.cpu, s.fitEAS = cpu, nil
		s.env.ranks = rankSpans(s.env.ranks, rankOf, numRanks)
	}
	placer := s.placer()
	if eas, ok := placer.(*EASPlacer); ok && eas != s.fitEAS {
		if !eas.fits(rankOf) {
			return Result{}, errors.New("sched: EAS energy model does not describe the CPU's clusters")
		}
		s.fitEAS = eas
	}

	if rec != nil {
		rec.begin(dt, satRate, cpu.Gen())
	}

	pool := poolSec
	limited := pool >= 0

	online, freqs := cpu.Online(), cpu.Freqs()
	budget, freq := s.env.Budget, s.env.Freq
	if cap(budget) < n {
		//mobilint:ignore one-time scratch growth on first window or topology change
		budget, freq = make([]float64, n), make([]float64, n)
	}
	budget, freq = budget[:n], freq[:n]
	for i, on := range online {
		budget[i], freq[i] = 0, 0
		if on {
			budget[i], freq[i] = dts, float64(freqs[i])
		}
	}

	// Soft affinity is suspended for threads whose last core is capped
	// while a cool online core exists: a persistent thread (a game's
	// render loop) would otherwise stay pinned to the throttled cluster
	// for the whole session and the derate below would never apply. On a
	// homogeneous platform the clusters cap together, so anyCool is false
	// whenever the last core is capped and affinity behaves exactly as
	// before.
	anyCool := false
	for i := range online {
		if online[i] && (i >= len(pr.Capped) || !pr.Capped[i]) {
			anyCool = true
			break
		}
	}

	// The env lives on the scheduler so taking its address for the
	// placer's interface call does not force a per-window heap escape.
	s.env = PlaceEnv{
		Online:    online,
		Budget:    budget,
		Freq:      freq,
		Capped:    pr.Capped,
		CapScale:  pr.CapScale,
		AnyCool:   anyCool,
		WindowSec: dts,
		ranks:     s.env.ranks,
	}
	for r := range s.env.ranks {
		s.env.ranks[r].stale = true
	}

	runnable := s.runnable[:0]
	for _, t := range threads {
		if t != nil && t.Runnable() {
			//mobilint:ignore append into pooled scratch; capacity amortizes across windows
			runnable = append(runnable, t)
		}
	}
	s.runnable = runnable
	// Largest debt first; name breaks ties so runs are deterministic.
	// Small sets — the per-tick norm — use a direct insertion sort on the
	// concrete slice, skipping interface dispatch; both branches are
	// stable sorts under the same strict order, so they yield the one
	// permutation the determinism contract pins.
	if len(runnable) <= 16 {
		for i := 1; i < len(runnable); i++ {
			for j := i; j > 0 && debtLess(runnable[j], runnable[j-1]); j-- {
				runnable[j], runnable[j-1] = runnable[j-1], runnable[j]
			}
		}
	} else {
		sort.Stable(&s.runnable)
	}

	for _, t := range runnable {
		if limited && pool <= 0 {
			break // bandwidth exhausted for this window
		}
		startLast, startPending := t.lastCore, t.pending
		core := placer.Place(&s.env, t)
		if core < 0 {
			if rec != nil {
				rec.record(t, startLast, core, 0, startPending)
			}
			continue // no core time anywhere
		}
		allowedSec := budget[core]
		if limited && pool < allowedSec {
			allowedSec = pool
		}
		maxCycles := allowedSec * freq[core]
		done := t.Execute(maxCycles, core)
		sec := 0.0
		if freq[core] > 0 {
			sec = done / freq[core]
		}
		budget[core] -= sec
		s.env.ranks[rankOf[core]].stale = true
		if limited {
			pool -= sec
		}
		res.BusySeconds[core] += sec
		res.ExecutedCycles += done
		res.PoolUsedSec += sec
		if rec != nil {
			rec.record(t, startLast, core, done, startPending)
		}
	}

	// Throttled time: capacity withheld by the bandwidth pool while
	// runnable work remained.
	var leftover float64
	for _, t := range runnable {
		leftover += t.pending
	}
	if leftover > 0 && limited && pool <= 1e-12 {
		for i, on := range online {
			if on && budget[i] > 0 {
				res.ThrottledSeconds += budget[i]
			}
		}
	}

	// A core's busy time is a sum of grants, each divided back out of
	// cycles, so rounding can carry it a few ulps past the window.
	for i, b := range busy {
		busy[i] = min(b, dts)
	}
	if rec != nil {
		rec.finish(res, pr, limited, pool)
	}
	return res, nil
}

// rankSpans sizes ranks (reusing its backing array when large enough) to
// numRanks records and sets each rank's core ids to the range [lo, hi) of
// its lowest and highest core. A rank is one cluster, whose cores
// soc.NewClusteredCPU numbers contiguously, so the range holds exactly the
// rank's cores.
func rankSpans(ranks []rankAgg, rankOf []int, numRanks int) []rankAgg {
	if cap(ranks) < numRanks {
		ranks = make([]rankAgg, numRanks)
	}
	ranks = ranks[:numRanks]
	for r := range ranks {
		ranks[r] = rankAgg{lo: len(rankOf)}
	}
	for i, r := range rankOf {
		ranks[r].lo = min(ranks[r].lo, i)
		ranks[r].hi = i + 1
	}
	return ranks
}
