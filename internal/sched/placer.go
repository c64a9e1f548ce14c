package sched

import (
	"errors"
	"math"
	"slices"

	"mobicore/internal/em"
)

// PlaceEnv is the per-window placement view a Placer decides against. The
// scheduler builds it once per window from the CPU's per-core state and
// the caller's thermal-pressure report; placers must not mutate its fields
// (Rank keeps its own aggregates current). Online is the CPU's own slice.
type PlaceEnv struct {
	// Online flags each core's hotplug state.
	Online []bool
	// Budget is each core's remaining execution time this window (sec).
	Budget []float64
	// Freq is each core's currently programmed frequency in Hz.
	Freq []float64
	// Capped flags cores whose cluster has a thermal frequency cap
	// engaged. May be nil (no pressure telemetry).
	Capped []bool
	// CapScale is the headroom-aware capacity scale of each core's
	// cluster: CapFreq/f_max in (0,1] while capped, 1 while cool. Nil when
	// the caller only knows the boolean cap state; placers then fall back
	// to the fixed thermalDerate.
	CapScale []float64
	// AnyCool reports whether any online core is currently uncapped —
	// the condition under which soft affinity to a capped core is
	// suspended.
	AnyCool bool
	// WindowSec is the scheduling window length in seconds.
	WindowSec float64

	// ranks backs Rank, one record per efficiency rank: the CPU's
	// clusters ordered by ascending top frequency, rank 0 the most
	// efficient (one rank on a homogeneous CPU). The scheduler marks every
	// rank stale at the start of a window and the granted core's rank
	// after every grant.
	ranks []rankAgg
}

// rankAgg is one efficiency rank's placement record: its core ids
// [lo, hi), fixed per CPU, and the aggregates Rank returns, recomputed
// when stale.
type rankAgg struct {
	lo, hi  int
	busySec float64
	cand    int
	stale   bool
}

// Rank returns efficiency rank r's placement aggregates: busySec, the
// seconds already granted on the rank's online cores (Σ WindowSec − Budget,
// summed in core order), and cand, its online core with the most budget
// above 1e-12 s, lowest id on ties (-1 when none). They are recomputed only
// when a grant has landed on the rank since they were last read, so a
// placer reads them instead of rescanning every core per thread, and one
// that never asks (the greedy under soft affinity) pays nothing.
//
//mobicore:hotpath
func (e *PlaceEnv) Rank(r int) (busySec float64, cand int) {
	a := &e.ranks[r]
	if a.stale {
		e.refresh(a)
	}
	return a.busySec, a.cand
}

// refresh recomputes a rank's aggregates from the current budgets. The
// busy sum restarts from zero in core order rather than tracking grants
// with a running total, so it stays bit-identical to a fresh scan: a
// rounding drift could flip the EAS placer's idle-domain uncore charge.
//
//mobicore:hotpath
func (e *PlaceEnv) refresh(a *rankAgg) {
	const eps = 1e-12
	budget := e.Budget[a.lo:a.hi]
	online := e.Online[a.lo:a.hi]
	online = online[:len(budget)]
	busy, cand, candBudget := 0.0, -1, eps
	for j, b := range budget {
		if !online[j] {
			continue
		}
		busy += e.WindowSec - b
		if b > candBudget {
			cand, candBudget = a.lo+j, b
		}
	}
	a.busySec, a.cand, a.stale = busy, cand, false
}

// isCapped reports core i's thermal-cap flag.
func (e *PlaceEnv) isCapped(i int) bool {
	return i < len(e.Capped) && e.Capped[i]
}

// thermalScale returns core i's headroom-aware capacity scale: CapScale
// when the caller supplied one, the fixed thermalDerate otherwise, 1 while
// cool. Placement capacity claimed on a capped cluster is likely gone by
// the end of the window (the throttle is still stepping down), so it is
// discounted in proportion to how deep the cap already sits.
func (e *PlaceEnv) thermalScale(i int) float64 {
	if !e.isCapped(i) {
		return 1
	}
	if i < len(e.CapScale) && e.CapScale[i] > 0 && e.CapScale[i] <= 1 {
		return e.CapScale[i]
	}
	return thermalDerate
}

// affinityCore returns the thread's previous core when soft affinity
// applies: online, with budget, and not a capped core while a cool one
// exists. Returns -1 when affinity does not decide the placement.
func (e *PlaceEnv) affinityCore(t *Thread) int {
	const eps = 1e-12
	if lc := t.lastCore; lc >= 0 && lc < len(e.Online) && e.Online[lc] && e.Budget[lc] > eps {
		if !(e.AnyCool && e.isCapped(lc)) {
			return lc
		}
	}
	return -1
}

// Placer decides which core a runnable thread executes on this window.
// Implementations must be deterministic and allocation-free on the per-tick
// hot path; they return -1 when no core has budget.
type Placer interface {
	// Name identifies the placer in reports and CLI flags.
	Name() string
	// Place picks the core for t, or -1.
	Place(env *PlaceEnv, t *Thread) int
}

// GreedyPlacer is the original placement rule: soft affinity, then walk
// clusters from most to least efficient picking the most-budget core,
// escalating to a bigger cluster only when the efficient candidate cannot
// fully serve the thread's pending cycles and the bigger cluster offers
// strictly more (thermally derated) capacity — "prefer LITTLE until demand
// justifies big". On homogeneous platforms it reduces exactly to the
// most-budget greedy.
type GreedyPlacer struct{}

// Name implements Placer.
func (GreedyPlacer) Name() string { return "greedy" }

// Place implements Placer.
//
//mobicore:hotpath
func (GreedyPlacer) Place(env *PlaceEnv, t *Thread) int {
	if lc := env.affinityCore(t); lc >= 0 {
		return lc
	}
	best := -1
	var bestCap float64
	for r := range env.ranks {
		_, cand := env.Rank(r)
		if cand < 0 {
			continue
		}
		capCycles := env.Budget[cand] * env.Freq[cand]
		if env.isCapped(cand) {
			capCycles *= thermalDerate
		}
		if best < 0 || capCycles > bestCap {
			best, bestCap = cand, capCycles
		}
		if bestCap >= t.pending {
			break // efficient enough and fully serves the thread
		}
	}
	return best
}

// EASPlacer is a find_energy_efficient_cpu-style placement rule driven by
// the em energy model: for each runnable thread it estimates the energy of
// executing the thread's pending cycles on each candidate domain at the OPP
// that domain's governor would pick for the resulting per-core rate, and
// places the thread on the cheapest domain that can fully serve it. Unlike
// the greedy, soft affinity is a candidate rather than a short-circuit —
// the previous core wins ties and keeps overflow threads (the kernel also
// prefers prev_cpu at equal energy), but a strictly cheaper domain triggers
// a migration, which is exactly the wake-time cluster migration mainline
// EAS performs. Thermal pressure enters as headroom-aware capacity
// (PlaceEnv.CapScale) rather than a fixed derate. When no domain fits, it
// escalates to the largest derated capacity — the same overflow rule as
// the greedy, so a saturated SoC behaves identically. On homogeneous
// platforms every decision reproduces the greedy bit for bit: with one
// domain the previous core always ties for cheapest, so affinity holds
// whenever the greedy's would, and the fallback candidate is the same
// most-budget core.
//
// The energy model must describe the CPU being scheduled: one domain per
// cluster, owning exactly that cluster's cores, so that a domain's
// position in the model's efficiency order is its cluster's rank and the
// scheduler's per-rank aggregates are the domain's. Schedule checks this
// once per CPU and fails on a mismatch.
type EASPlacer struct {
	model *em.Model
}

// NewEASPlacer builds the EAS placer on an energy model.
func NewEASPlacer(model *em.Model) (*EASPlacer, error) {
	if model == nil {
		return nil, errors.New("sched: EAS placer needs an energy model")
	}
	return &EASPlacer{model: model}, nil
}

// fits reports whether the placer's model describes a CPU with the given
// per-core efficiency ranks: the same cores, and each core's domain at its
// cluster's rank in the efficiency order.
func (p *EASPlacer) fits(rankOf []int) bool {
	return slices.Equal(p.model.CoreRanks(), rankOf)
}

// Name implements Placer.
func (p *EASPlacer) Name() string { return "eas" }

// Place implements Placer.
//
//mobicore:hotpath
func (p *EASPlacer) Place(env *PlaceEnv, t *Thread) int {
	prev := env.affinityCore(t)
	prevDom := -1
	if prev >= 0 {
		prevDom = p.model.DomainOf(prev)
	}
	bestFit, bestFitDom, bestFitCost := -1, -1, math.Inf(1)
	bestAny := -1
	var bestAnyCap float64
	prevFits := false
	var homeDom *em.Domain
	var homeBusySec float64
	for r, di := range p.model.EfficiencyOrder() {
		// The domain at efficiency position r is the CPU's rank-r cluster
		// (see fits), so the scheduler's rank aggregates are the domain's.
		domBusySec, cand := env.Rank(r)
		if cand < 0 {
			continue
		}
		dom := p.model.Domain(di)
		scale := env.thermalScale(cand)
		capCycles := env.Budget[cand] * env.Freq[cand] * scale
		if bestAny < 0 || capCycles > bestAnyCap {
			bestAny, bestAnyCap = cand, capCycles
		}
		// Feasibility is judged at the domain's (thermally discounted)
		// capacity, not the candidate's currently programmed OPP: the
		// governor follows demand, so a cool idle cluster clocked at its
		// floor is still a valid target — exactly how the kernel sizes
		// candidates by capacity rather than current frequency.
		fitCycles := env.Budget[cand] * dom.Capacity() * scale
		if di == prevDom {
			// The previous core itself, not the domain's most-budget
			// candidate, is where the thread would resume; it is priced
			// below, only if another domain turns out cheapest.
			prevFits = env.Budget[prev]*dom.Capacity()*env.thermalScale(prev) >= t.pending
			homeDom, homeBusySec = dom, domBusySec
		}
		if fitCycles < t.pending {
			continue // cannot fully serve; only an overflow candidate
		}
		if cost := p.costPerCycle(dom, p.rateOn(env, cand, t), domBusySec); cost < bestFitCost {
			bestFit, bestFitDom, bestFitCost = cand, di, cost
		}
	}
	if bestFit >= 0 {
		if prevDom == bestFitDom {
			return prev // cheapest domain is home: plain soft affinity
		}
		if prevFits && p.costPerCycle(homeDom, p.rateOn(env, prev, t), homeBusySec) <= bestFitCost {
			return prev // home ties the cheapest alternative: stay put
		}
		return bestFit // strictly cheaper elsewhere: migrate
	}
	if prev >= 0 {
		return prev // nothing fits anywhere: overflow threads stay home
	}
	return bestAny
}

// rateOn estimates the per-core demand rate core i's governor would see
// with the thread placed on it: cycles already committed to the core this
// window plus the thread's debt, over the window.
//
//mobicore:hotpath
func (p *EASPlacer) rateOn(env *PlaceEnv, i int, t *Thread) float64 {
	return ((env.WindowSec-env.Budget[i])*env.Freq[i] + t.pending) / env.WindowSec
}

// costPerCycle prices one cycle of the thread on a domain at the OPP the
// governor would pick for rate. A domain with no work yet this window
// additionally charges its uncore share — waking an idle cluster's cache
// and bus is part of the placement's energy delta, while joining an
// already-busy cluster rides uncore power that is being paid anyway. This
// is the system-level term a bare cost-per-cycle comparison misses: a
// migration that saves a few mW of core power must still amortize the
// target cluster's uncore before it is worthwhile.
//
//mobicore:hotpath
func (p *EASPlacer) costPerCycle(dom *em.Domain, rate, domBusySec float64) float64 {
	const eps = 1e-12
	i := dom.OPPForRate(rate)
	cost := dom.CostPerCycleAt(i)
	if domBusySec <= eps {
		cost += dom.UncorePerCycleAt(i)
	}
	return cost
}
