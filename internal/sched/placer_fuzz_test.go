package sched

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mobicore/internal/em"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// oracleEAS is the EAS placement rule written as a per-thread rescan: for
// every thread it walks every domain's cores for their busy time and the
// most-budget candidate, where EASPlacer reads the scheduler's per-rank
// aggregates. It prices with the placer's own cost helpers, so the fuzzer
// below isolates the aggregates.
type oracleEAS struct{ p *EASPlacer }

func (o oracleEAS) Name() string { return "eas-oracle" }

func (o oracleEAS) Place(env *PlaceEnv, t *Thread) int {
	const eps = 1e-12
	p := o.p
	prev := env.affinityCore(t)
	prevDom := -1
	if prev >= 0 {
		prevDom = p.model.DomainOf(prev)
	}
	bestFit, bestFitDom, bestFitCost := -1, -1, math.Inf(1)
	bestAny := -1
	var bestAnyCap float64
	prevFits, prevCost := false, math.Inf(1)
	for _, di := range p.model.EfficiencyOrder() {
		dom := p.model.Domain(di)
		cand, candBudget := -1, eps
		domBusySec := 0.0
		for _, id := range dom.CoreIDs() {
			if id < len(env.Online) && env.Online[id] {
				domBusySec += env.WindowSec - env.Budget[id]
				if env.Budget[id] > candBudget {
					cand, candBudget = id, env.Budget[id]
				}
			}
		}
		if cand < 0 {
			continue
		}
		capCycles := env.Budget[cand] * env.Freq[cand] * env.thermalScale(cand)
		if bestAny < 0 || capCycles > bestAnyCap {
			bestAny, bestAnyCap = cand, capCycles
		}
		fitCycles := env.Budget[cand] * dom.Capacity() * env.thermalScale(cand)
		if di == prevDom {
			prevFit := env.Budget[prev] * dom.Capacity() * env.thermalScale(prev)
			if prevFit >= t.pending {
				prevFits = true
				prevCost = p.costPerCycle(dom, p.rateOn(env, prev, t), domBusySec)
			}
		}
		if fitCycles < t.pending {
			continue
		}
		if cost := p.costPerCycle(dom, p.rateOn(env, cand, t), domBusySec); cost < bestFitCost {
			bestFit, bestFitDom, bestFitCost = cand, di, cost
		}
	}
	if bestFit >= 0 {
		if prevDom == bestFitDom {
			return prev
		}
		if prevFits && prevCost <= bestFitCost {
			return prev
		}
		return bestFit
	}
	if prev >= 0 {
		return prev
	}
	return bestAny
}

// oracleGreedy is GreedyPlacer written as a per-thread rescan of every
// rank's cores, with the scheduled CPU's ranks (soc.CPU.ClusterRanks).
type oracleGreedy struct {
	rankOf   []int
	numRanks int
}

func (oracleGreedy) Name() string { return "greedy-oracle" }

func (o oracleGreedy) Place(env *PlaceEnv, t *Thread) int {
	const eps = 1e-12
	if lc := env.affinityCore(t); lc >= 0 {
		return lc
	}
	best := -1
	var bestCap float64
	for r := 0; r < o.numRanks; r++ {
		cand, candBudget := -1, eps
		for i := range env.Online {
			if o.rankOf[i] != r {
				continue
			}
			if env.Online[i] && env.Budget[i] > candBudget {
				cand, candBudget = i, env.Budget[i]
			}
		}
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
			break
		}
	}
	return best
}

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzUniverse is one fuzz input's topology: the clusters, a matching
// energy model, and the knobs every window reuses.
type fuzzUniverse struct {
	clusters []soc.Cluster
	specs    []em.DomainSpec
	online   []int     // per-cluster online core count (parking the last cluster is refused: one core must stay up)
	oppIdx   []int     // per-cluster programmed OPP index
	capped   []bool    // per-core pressure flags (nil: no pressure)
	capScale []float64 // per-core scale (nil: fixed derate)
	n        int
}

// buildFuzzUniverse derives a 1–3 domain, 1–4 cores-per-domain topology
// with 1–4 OPPs per ladder from the input. Ladders may collide in top
// frequency (rank ties) and in per-cycle cost (pricing ties).
func buildFuzzUniverse(in *fuzzBytes) (*fuzzUniverse, error) {
	u := &fuzzUniverse{}
	nd := 1 + in.next()%3
	for d := 0; d < nd; d++ {
		cores := 1 + in.next()%4
		nopp := 1 + in.next()%4
		points := make([]soc.OPP, nopp)
		f := soc.Hz(100+10*in.next()) * soc.MHz
		v := 0.5 + float64(in.next()%8)*0.05
		for i := range points {
			points[i] = soc.OPP{Freq: f, Volt: soc.Volt(v)}
			f += soc.Hz(50+10*in.next()) * soc.MHz
			v += float64(in.next()%4) * 0.05
		}
		table, err := soc.NewOPPTable(points)
		if err != nil {
			return nil, err
		}
		ids := make([]int, cores)
		for i := range ids {
			ids[i] = u.n + i
		}
		u.n += cores
		name := fmt.Sprintf("d%d", d)
		u.clusters = append(u.clusters, soc.Cluster{Name: name, NumCores: cores, Table: table})
		u.specs = append(u.specs, em.DomainSpec{Name: name, CoreIDs: ids, Table: table, Params: power.Params{
			CeffFarads:      float64(1+in.next()%4) * 0.5e-10,
			LeakCoeffWatts:  float64(1+in.next()%4) * 0.01,
			LeakExponent:    2.5,
			OfflineWatts:    0.001,
			CacheBaseWatts:  float64(in.next()%4) * 0.01,
			CacheSlopeWatts: float64(in.next()%4) * 0.01,
			BaseWatts:       0.05,
		}})
		u.oppIdx = append(u.oppIdx, in.next()%nopp)
	}
	// Each set mask bit takes one core of its cluster offline; hotplug
	// keeps a cluster's lowest ids up.
	mask := in.next()
	id := 0
	for _, cl := range u.clusters {
		online := cl.NumCores
		for range cl.NumCores {
			if mask&(1<<(id%8)) != 0 {
				online--
			}
			id++
		}
		u.online = append(u.online, online)
	}
	switch in.next() % 3 {
	case 1: // boolean pressure only: the fixed derate
		u.capped = make([]bool, u.n)
	case 2: // headroom-aware scales, including out-of-range ones
		u.capped = make([]bool, u.n)
		u.capScale = make([]float64, u.n)
		for i := range u.capScale {
			u.capScale[i] = float64(in.next()%12) / 10 // 0 .. 1.1
		}
	}
	for i := range u.capped {
		u.capped[i] = in.next()%3 == 0
	}
	return u, nil
}

func (u *fuzzUniverse) newCPU(t *testing.T) *soc.CPU {
	cpu, err := soc.NewClusteredCPU(u.clusters)
	if err != nil {
		t.Fatal(err)
	}
	for ci, i := range u.oppIdx {
		if err := cpu.SetClusterFreq(ci, u.clusters[ci].Table.At(i).Freq); err != nil {
			t.Fatal(err)
		}
	}
	for ci, n := range u.online {
		_ = cpu.SetClusterOnlineCount(ci, n) // parking the last online cluster refuses; that is fine
	}
	return cpu
}

// fuzzDebt maps a byte to a debt spanning idle to far past any core's
// window capacity, with exact repeats (ties) likely.
func fuzzDebt(b int) float64 {
	if b%8 == 0 {
		return 0
	}
	return float64(1+b%5) * math.Pow(10, float64(3+b%7))
}

// FuzzEASPlace drives the EAS placer (and the greedy) through Schedule on
// fuzzed topologies, online masks, operating points, pressure views,
// pending debts, last cores, pools and windows, against a twin universe
// scheduled by the rescanning oracle. Every window's Result and every
// thread's placement, grant and debt must match bit for bit, and every
// core's busy time must lie in [0, dt], exactly 0 on offline cores.
func FuzzEASPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 3, 30, 2, 5, 1, 1, 2, 1, 2, 3, 1, 3, 3, 90, 6, 5, 2, 2, 3, 2, 1, 0, 2, 7, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 2, 9, 17, 33, 65, 129, 4, 200, 201, 202})
	f.Add([]byte{0, 3, 3, 10, 5, 5, 5, 5, 5, 2, 0, 0, 0, 0, 0, 0, 7, 5, 8, 9, 12, 16, 3, 3, 3, 3, 3})
	// A core whose grants sum to dt plus float rounding.
	f.Add([]byte("1010000000000007a0\x970\x970\x970000000700070000000000000000000&&...011"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		u, err := buildFuzzUniverse(&in)
		if err != nil {
			t.Skip(err)
		}
		model, err := em.New(u.specs)
		if err != nil {
			t.Skip(err)
		}
		eas, err := NewEASPlacer(model)
		if err != nil {
			t.Fatal(err)
		}
		cpuA, cpuB := u.newCPU(t), u.newCPU(t)
		var fast, slow Scheduler
		if in.next()%4 == 0 {
			rankOf, numRanks := cpuB.ClusterRanks()
			fast.Placer, slow.Placer = GreedyPlacer{}, oracleGreedy{rankOf, numRanks}
		} else {
			fast.Placer, slow.Placer = eas, oracleEAS{eas}
		}
		nt := 1 + in.next()%8
		thA, thB := make([]*Thread, nt), make([]*Thread, nt)
		for i := range thA {
			name := fmt.Sprintf("t%d", in.next()%4) // duplicate names exercise the tie order
			thA[i], thB[i] = NewThread(name), NewThread(name)
			// A last core (or none), set by a one-cycle execution.
			if lc := in.next()%(u.n+1) - 1; lc >= 0 {
				for _, th := range []*Thread{thA[i], thB[i]} {
					th.AddWork(1)
					th.Execute(1, lc)
				}
			}
		}
		pr := Pressure{Capped: u.capped, CapScale: u.capScale}
		windows := 1 + in.next()%4
		for w := 0; w < windows; w++ {
			for i := range thA {
				debt := fuzzDebt(in.next())
				thA[i].AddWork(debt)
				thB[i].AddWork(debt)
			}
			dt := time.Duration(1+in.next()%20) * time.Millisecond
			pool := Unlimited
			if b := in.next(); b%3 == 0 {
				pool = float64(b) * 1e-4
			}
			resA, errA := fast.Schedule(cpuA, thA, dt, pool, pr, busyFor(cpuA), nil, 0)
			resB, errB := slow.Schedule(cpuB, thB, dt, pool, pr, busyFor(cpuB), nil, 0)
			if errA != nil || errB != nil {
				t.Fatalf("window %d: schedule errors %v / %v", w, errA, errB)
			}
			requireResultIdentical(t, w, resA, resB)
			requireUniversesIdentical(t, w, cpuA, cpuB, thA, thB)
			requireBusyWithinWindow(t, w, cpuA.Online(), resA, dt)
		}
	})
}

// requireBusyWithinWindow checks the per-core busy law: each core's busy
// seconds lie in [0, dt], and are exactly 0 on an offline core.
func requireBusyWithinWindow(t *testing.T, w int, online []bool, res Result, dt time.Duration) {
	t.Helper()
	limit := dt.Seconds()
	for i, b := range res.BusySeconds {
		if !online[i] {
			if b != 0 {
				t.Fatalf("window %d: offline core %d busy %v s", w, i, b)
			}
		} else if !(b >= 0 && b <= limit) {
			t.Fatalf("window %d: core %d busy %v s outside [0, %v]", w, i, b, dt.Seconds())
		}
	}
}

// TestEASPlacerRejectsForeignCPU: an EAS placer whose energy model does not
// describe the scheduled CPU's clusters fails the window instead of
// placing against another topology's aggregates.
func TestEASPlacerRejectsForeignCPU(t *testing.T) {
	model, _ := crossoverModel(t) // 2+2 cores
	placer, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	th := NewThread("t")
	th.AddWork(1e6)
	s := Scheduler{Placer: placer}
	busy := make([]float64, 4)
	if _, err := s.Schedule(newCPU(t, 4), []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busy, nil, 0); err == nil {
		t.Error("2-domain model accepted on a homogeneous 4-core CPU")
	}
	if _, err := s.Schedule(thermalTestCPU(t), []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busy, nil, 0); err != nil {
		t.Errorf("matching 2+2 CPU rejected: %v", err)
	}
}
