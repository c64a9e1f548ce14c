package sched

import (
	"math/rand"
	"testing"
	"time"

	"mobicore/internal/em"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// crossoverModel builds a 2+2 energy model where the LITTLE ladder's top
// bin costs more per cycle than the big ladder's matching bin — the
// convexity crossover the EAS placer exists to exploit. LITTLE tops out at
// 1 GHz / 1.05 V with a modest C_eff; big reaches 2 GHz with a low-voltage
// 1 GHz bin, so a ~1 GHz thread is cheaper there despite the bigger C_eff.
func crossoverModel(t *testing.T) (*em.Model, *soc.CPU) {
	t.Helper()
	little := soc.MustOPPTable([]soc.OPP{
		{Freq: 400 * soc.MHz, Volt: 0.70},
		{Freq: 700 * soc.MHz, Volt: 0.85},
		{Freq: 1000 * soc.MHz, Volt: 1.05},
	})
	big := soc.MustOPPTable([]soc.OPP{
		{Freq: 500 * soc.MHz, Volt: 0.65},
		{Freq: 1000 * soc.MHz, Volt: 0.70},
		{Freq: 2000 * soc.MHz, Volt: 1.10},
	})
	params := func(ceff, cache float64) power.Params {
		return power.Params{
			CeffFarads:      ceff,
			LeakCoeffWatts:  0.01,
			LeakExponent:    2.5,
			OfflineWatts:    0.001,
			CacheBaseWatts:  cache,
			CacheSlopeWatts: cache,
			BaseWatts:       0.05,
		}
	}
	m, err := em.New([]em.DomainSpec{
		{Name: "LITTLE", CoreIDs: []int{0, 1}, Table: little, Params: params(1.0e-10, 0.010)},
		{Name: "big", CoreIDs: []int{2, 3}, Table: big, Params: params(1.3e-10, 0.030)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crossover sanity: at ~0.95 GHz the big domain's 1 GHz bin (0.70 V)
	// must beat LITTLE's top bin (1.05 V).
	if l, b := m.Domain(0).EnergyPerCycle(0.95e9), m.Domain(1).EnergyPerCycle(0.95e9); l <= b {
		t.Fatalf("fixture lacks the crossover: LITTLE %.3g <= big %.3g", l, b)
	}
	cpu, err := soc.NewClusteredCPU([]soc.Cluster{
		{Name: "LITTLE", NumCores: 2, Table: little},
		{Name: "big", NumCores: 2, Table: big},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clock both domains to their tops so placement capacity reflects the
	// ladders rather than the boot floors.
	for ci, f := range []soc.Hz{1000 * soc.MHz, 2000 * soc.MHz} {
		if err := cpu.SetClusterFreq(ci, f); err != nil {
			t.Fatal(err)
		}
	}
	return m, cpu
}

// TestEASMigratesAtCrossover: a thread whose rate sits just under the
// LITTLE ceiling fits both domains; the greedy keeps it on LITTLE (first
// rank that serves) while EAS migrates it to the big domain's cheaper bin.
func TestEASMigratesAtCrossover(t *testing.T) {
	model, cpu := crossoverModel(t)
	placer, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	dt := time.Millisecond
	work := 0.95e6 // 0.95 GHz rate over 1 ms

	greedyCPU, easCPU := cpu, func() *soc.CPU { _, c := crossoverModel(t); return c }()
	var greedy, eas Scheduler
	eas.Placer = placer

	gth, eth := NewThread("hot"), NewThread("hot")
	gth.AddWork(work)
	eth.AddWork(work)
	if _, err := greedy.Schedule(greedyCPU, []*Thread{gth}, dt, Unlimited, Pressure{}, busyFor(greedyCPU), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eas.Schedule(easCPU, []*Thread{eth}, dt, Unlimited, Pressure{}, busyFor(easCPU), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := gth.LastCore(); lc >= 2 {
		t.Errorf("greedy placed crossover thread on big core %d, want LITTLE", lc)
	}
	if lc := eth.LastCore(); lc < 2 {
		t.Errorf("EAS placed crossover thread on LITTLE core %d, want big (cheaper bin)", lc)
	}
}

// TestEASKeepsLowRatesLittle: well under the crossover the efficiency
// island is cheapest and EAS must agree with the greedy.
func TestEASKeepsLowRatesLittle(t *testing.T) {
	model, cpu := crossoverModel(t)
	placer, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	var s Scheduler
	s.Placer = placer
	th := NewThread("calm")
	th.AddWork(0.3e6) // 300 MHz rate
	if _, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := th.LastCore(); lc >= 2 {
		t.Errorf("EAS placed a 300 MHz thread on big core %d", lc)
	}
}

// TestEASMigratesHomeAgain: once a thread's demand falls back under the
// crossover, EAS moves it off the big domain even though soft affinity
// points there — the wake-time migration greedy never performs.
func TestEASMigratesHomeAgain(t *testing.T) {
	model, cpu := crossoverModel(t)
	placer, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	var s Scheduler
	s.Placer = placer
	th := NewThread("burst")
	th.AddWork(0.95e6)
	if _, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if th.LastCore() < 2 {
		t.Fatalf("setup: thread on core %d, want big", th.LastCore())
	}
	th.AddWork(0.3e6)
	if _, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := th.LastCore(); lc >= 2 {
		t.Errorf("EAS left a 300 MHz thread on big core %d after its burst ended", lc)
	}
}

// TestEASHomogeneousEquivalence is the greedy-equivalence guarantee: on a
// single-domain platform the EAS placer reproduces the greedy's placement
// bit for bit across randomized workloads, windows, and pressure flags.
func TestEASHomogeneousEquivalence(t *testing.T) {
	table := soc.MSM8974Table()
	params := power.Params{
		CeffFarads:      1.35e-10,
		LeakCoeffWatts:  0.07,
		LeakExponent:    3.0,
		OfflineWatts:    0.002,
		CacheBaseWatts:  0.04,
		CacheSlopeWatts: 0.04,
		BaseWatts:       0.08,
	}
	model, err := em.New([]em.DomainSpec{{Name: "cpu", CoreIDs: []int{0, 1, 2, 3}, Table: table, Params: params}})
	if err != nil {
		t.Fatal(err)
	}
	placer, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nThreads := 1 + rng.Intn(6)
		works := make([]float64, nThreads)
		for i := range works {
			works[i] = float64(rng.Intn(3_000_000))
		}
		capped := make([]bool, 4)
		for i := range capped {
			capped[i] = rng.Intn(4) == 0
		}
		online := 1 + rng.Intn(4)
		run := func(p Placer) []float64 {
			cpu := newCPUOn(t, 4, table)
			if err := cpu.SetOnlineCount(online); err != nil {
				t.Fatal(err)
			}
			s := Scheduler{Placer: p}
			threads := make([]*Thread, nThreads)
			for i := range threads {
				threads[i] = NewThread("t" + string(rune('a'+i)))
				threads[i].AddWork(works[i])
			}
			// Two windows so soft affinity exercises both paths.
			for w := 0; w < 2; w++ {
				if _, err := s.Schedule(cpu, threads, time.Millisecond, Unlimited, Pressure{Capped: capped}, busyFor(cpu), nil, 0); err != nil {
					t.Fatal(err)
				}
				for i := range threads {
					threads[i].AddWork(works[i] / 2)
				}
			}
			out := make([]float64, nThreads)
			for i, th := range threads {
				out[i] = float64(th.LastCore())
			}
			return out
		}
		g, e := run(GreedyPlacer{}), run(placer)
		for i := range g {
			if g[i] != e[i] {
				t.Fatalf("trial %d: thread %d placed on %v (greedy) vs %v (eas)", trial, i, g[i], e[i])
			}
		}
	}
}

// TestEASHeadroomAwareDerate: with CapScale supplied, a deep cap shrinks a
// big candidate's usable capacity below the LITTLE alternative, steering an
// overflow thread to the cool cluster — while a shallow cap (scale above
// the fixed derate) still lets the big cluster win.
func TestEASHeadroomAwareDerate(t *testing.T) {
	model, _ := crossoverModel(t)
	placer, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	run := func(scale float64) int {
		_, cpu := crossoverModel(t)
		for ci, f := range []soc.Hz{1000 * soc.MHz, 2000 * soc.MHz} {
			if err := cpu.SetClusterFreq(ci, f); err != nil {
				t.Fatal(err)
			}
		}
		s := Scheduler{Placer: placer}
		th := NewThread("hog")
		th.AddWork(1e12) // fits nowhere: overflow path
		pr := Pressure{
			Capped:   []bool{false, false, true, true},
			CapScale: []float64{1, 1, scale, scale},
		}
		if _, err := s.Schedule(cpu, []*Thread{th}, 10*time.Millisecond, Unlimited, pr, busyFor(cpu), nil, 0); err != nil {
			t.Fatal(err)
		}
		return th.LastCore()
	}
	// Deep cap: big capacity 2 GHz × 0.3 = 600 MHz < LITTLE's 1 GHz.
	if lc := run(0.3); lc >= 2 {
		t.Errorf("deep cap: hog on big core %d, want LITTLE", lc)
	}
	// Shallow cap: 2 GHz × 0.9 = 1.8 GHz still beats LITTLE.
	if lc := run(0.9); lc < 2 {
		t.Errorf("shallow cap: hog on LITTLE core %d, want big", lc)
	}
}

// TestPlacerNames locks the CLI-visible names.
func TestPlacerNames(t *testing.T) {
	if (GreedyPlacer{}).Name() != "greedy" {
		t.Error("greedy placer name changed")
	}
	model, _ := crossoverModel(t)
	p, err := NewEASPlacer(model)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "eas" {
		t.Error("eas placer name changed")
	}
	if _, err := NewEASPlacer(nil); err == nil {
		t.Error("nil model accepted")
	}
}
