package sim_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/sched"
	"mobicore/internal/sim"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// pulseLoad deposits a fixed burst of work on every thread at scripted
// instants and hints steady everywhere else — the minimal demand source for
// pinning exactly when quiescence must break.
type pulseLoad struct {
	threads  []*sched.Thread
	deposits map[time.Duration]float64
	burst    int // threads receiving deposits after t=0; 0 means all
	steady   bool
}

func newPulseLoad(threads int, deposits map[time.Duration]float64) *pulseLoad {
	p := &pulseLoad{deposits: deposits}
	for i := 0; i < threads; i++ {
		p.threads = append(p.threads, sched.NewThread("pulse"+string(rune('0'+i))))
	}
	return p
}

func (p *pulseLoad) Name() string { return "pulse" }

func (p *pulseLoad) Tick(now, dt time.Duration, rng *rand.Rand) {
	if amt, ok := p.deposits[now]; ok {
		n := len(p.threads)
		if now > 0 && p.burst > 0 && p.burst < n {
			n = p.burst
		}
		for _, th := range p.threads[:n] {
			th.AddWork(amt)
		}
		p.steady = false
		return
	}
	p.steady = true
}

func (p *pulseLoad) Threads() []*sched.Thread { return p.threads }
func (p *pulseLoad) Done() bool               { return false }
func (p *pulseLoad) SteadyHint() bool         { return p.steady }

// mgrStep is one sampled allocation a scriptMgr hands out.
type mgrStep struct {
	freq  soc.Hz
	cores int
	quota float64
}

// scriptMgr replays a fixed decision sequence, repeating the last step —
// the deterministic stand-in for a governor when a test needs to cause (or
// withhold) exactly one reconfiguration.
type scriptMgr struct {
	steps []mgrStep
	calls int
}

func (m *scriptMgr) Name() string { return "script" }

func (m *scriptMgr) Decide(in policy.Input) (policy.Decision, error) {
	i := m.calls
	if i >= len(m.steps) {
		i = len(m.steps) - 1
	}
	m.calls++
	s := m.steps[i]
	tf := make([]soc.Hz, len(in.CurFreq))
	for c := range tf {
		tf[c] = s.freq
	}
	return policy.Decision{TargetFreq: tf, OnlineCores: s.cores, Quota: s.quota}, nil
}

func (m *scriptMgr) Reset() { m.calls = 0 }

// quiesceSim builds a Nexus 5 session around a scripted manager and a
// pulsed workload: one deep deposit at t=0 keeps four threads saturated for
// the whole run, so between events every tick is a candidate for replay.
func quiesceSim(t *testing.T, steps []mgrStep, deposits map[time.Duration]float64) *sim.Sim {
	t.Helper()
	if deposits == nil {
		deposits = map[time.Duration]float64{}
	}
	if _, ok := deposits[0]; !ok {
		deposits[0] = 1e12
	}
	return quiesceSimLoad(t, steps, newPulseLoad(4, deposits))
}

func quiesceSimLoad(t *testing.T, steps []mgrStep, p *pulseLoad) *sim.Sim {
	t.Helper()
	s, err := sim.SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   &scriptMgr{steps: steps},
		Workloads: []workload.Workload{p},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stepOne advances one tick and reports whether it took the fast path.
func stepOne(t *testing.T, s *sim.Sim) bool {
	t.Helper()
	before := s.FastTicks()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	return s.FastTicks() != before
}

// runTicks advances n ticks.
func runTicks(t *testing.T, s *sim.Sim, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// TestFastPathEngages: a saturated steady workload under a constant
// allocation replays almost every tick — and a decision that changes
// nothing (same frequency, same core count, same quota) must not break the
// streak across the sample boundary.
func TestFastPathEngages(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	s := quiesceSim(t, []mgrStep{{freq: max, cores: 4, quota: 1}}, nil)
	runTicks(t, s, 100) // two sample periods, boot transient included
	start := s.FastTicks()
	for i := 0; i < 100; i++ {
		if !stepOne(t, s) {
			t.Fatalf("tick %d after warmup fell off the fast path", i)
		}
	}
	if got := s.FastTicks() - start; got != 100 {
		t.Fatalf("fast ticks = %d, want 100", got)
	}
}

// TestFreqChangeBreaksQuiescence: the first tick after a decision that
// reprograms frequencies must run the full pipeline; an identical session
// whose decision is a no-op stays on the fast path.
func TestFreqChangeBreaksQuiescence(t *testing.T) {
	tbl := platform.Nexus5().Table
	max, min := tbl.Max().Freq, tbl.Min().Freq
	changed := quiesceSim(t, []mgrStep{
		{freq: max, cores: 4, quota: 1},
		{freq: max, cores: 4, quota: 1},
		{freq: min, cores: 4, quota: 1},
	}, nil)
	control := quiesceSim(t, []mgrStep{{freq: max, cores: 4, quota: 1}}, nil)

	// Decisions land at the ends of ticks 49, 99, and 149; tick 149
	// applies the frequency drop, so tick 150 is the one that must
	// recompute.
	runTicks(t, changed, 150)
	runTicks(t, control, 150)
	if stepOne(t, changed) {
		t.Error("tick after a frequency reprogram replayed a stale window")
	}
	if !stepOne(t, control) {
		t.Error("control session (no-op decision) lost the fast path")
	}
}

// TestHotplugBreaksQuiescence: parking a core invalidates the retained
// window at the decision boundary.
func TestHotplugBreaksQuiescence(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	changed := quiesceSim(t, []mgrStep{
		{freq: max, cores: 4, quota: 1},
		{freq: max, cores: 4, quota: 1},
		{freq: max, cores: 3, quota: 1},
	}, nil)
	control := quiesceSim(t, []mgrStep{{freq: max, cores: 4, quota: 1}}, nil)
	runTicks(t, changed, 150)
	runTicks(t, control, 150)
	if stepOne(t, changed) {
		t.Error("tick after a hotplug replayed a stale window")
	}
	if !stepOne(t, control) {
		t.Error("control session lost the fast path")
	}
}

// TestQuotaRefillBreaksQuiescence walks the bandwidth-pool seams. The
// quota decision at tick 49 switches the pool from unlimited to 4 ms per
// period — exactly the aggregate the four saturated threads consume in one
// tick — so each period grants one full window, starves the rest, and
// refills. Every seam must recompute: the regime change (an
// unlimited-pool recording must never replay against a finite pool), the
// first starved tick, the refill tick, and the first starved tick after it
// (the refill pass dropped the drained window it could not re-arm); while
// the starved stretches must replay as drained windows.
func TestQuotaRefillBreaksQuiescence(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	s := quiesceSim(t, []mgrStep{{freq: max, cores: 4, quota: 0.02}}, nil)

	runTicks(t, s, 50)
	if stepOne(t, s) { // tick 50: first tick under a finite pool
		t.Error("unlimited-pool window replayed against a finite pool")
	}
	if stepOne(t, s) { // tick 51: pool exhausted, first drained recording
		t.Error("tick 51 replayed before any drained window existed")
	}
	drained := s.FastTicks()
	runTicks(t, s, 48) // ticks 52..99: starved tail of the period
	if s.FastTicks() == drained {
		t.Error("starved period tail never replayed as a drained window")
	}
	if stepOne(t, s) { // tick 100: sample at tick 99 refilled the pool
		t.Error("tick after a quota refill replayed a starved window against a live pool")
	}
	if stepOne(t, s) { // tick 101: starved again; the refill pass dropped the drained window
		t.Error("tick 101 replayed a window the refill pass had dropped")
	}
	if !stepOne(t, s) { // tick 102: tick 101 re-recorded the drained window
		t.Error("re-recorded drained window did not replay")
	}
}

// TestDemandChangeBreaksQuiescence: a workload deposit between samples (a
// frame boundary, a burst arrival) must push the very next tick down the
// slow path even though no allocation changed. The initial burst drains
// within ~10 ticks, so the window retained through the idle stretch is
// empty; the deposit then wakes two of the four threads — a runnable
// population the retained window has not seen, so the match must fail.
func TestDemandChangeBreaksQuiescence(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	steps := []mgrStep{{freq: max, cores: 4, quota: 1}}
	burst := newPulseLoad(4, map[time.Duration]float64{
		0:                     2e7,
		77 * time.Millisecond: 5e8,
	})
	burst.burst = 2
	changed := quiesceSimLoad(t, steps, burst)
	control := quiesceSim(t, steps, map[time.Duration]float64{0: 2e7})
	runTicks(t, changed, 77)
	runTicks(t, control, 77)
	if stepOne(t, changed) { // tick 77 carries the deposit
		t.Error("deposit tick replayed a window recorded under the old demand")
	}
	if !stepOne(t, control) { // idle stretch keeps replaying empty windows
		t.Error("control session lost the fast path")
	}
}

// traceBits flattens a power-trace sample to its exact bit pattern, so two
// sessions can be compared for byte identity rather than tolerance.
func traceBits(buf *bytes.Buffer, now, dt time.Duration, systemW float64, clusterW []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(now))
	buf.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(dt))
	buf.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(systemW))
	buf.Write(b[:])
	for _, w := range clusterW {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		buf.Write(b[:])
	}
}

// TestFusedMatchesNoFuseLockstep is the equivalence contract at its
// strongest: a duty-cycled busy loop under the MobiCore manager runs once
// fused and once with NoFuse, and every tick's power sample must carry
// identical float bits — not close, identical. The fused run must actually
// exercise the fast path for the comparison to mean anything.
func TestFusedMatchesNoFuseLockstep(t *testing.T) {
	run := func(noFuse bool) (*sim.Report, uint64, []byte) {
		t.Helper()
		plat := platform.Nexus5()
		bl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
			TargetUtil: 0.5, Threads: 4, RefFreq: plat.Table.Max().Freq,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), false)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		s, err := sim.SessionSpec{
			Platform:  plat,
			Manager:   mgr,
			Workloads: []workload.Workload{bl},
			Seed:      7,
			NoFuse:    noFuse,
			PowerTrace: func(now, dt time.Duration, systemW float64, clusterW []float64) {
				traceBits(&trace, now, dt, systemW, clusterW)
			},
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep, s.FastTicks(), trace.Bytes()
	}

	fusedRep, fastTicks, fusedTrace := run(false)
	slowRep, slowFast, slowTrace := run(true)
	if fastTicks == 0 {
		t.Fatal("fused run never took the fast path; the comparison is vacuous")
	}
	if slowFast != 0 {
		t.Fatalf("NoFuse run took %d fast ticks", slowFast)
	}
	if !bytes.Equal(fusedTrace, slowTrace) {
		for i := range fusedTrace {
			if fusedTrace[i] != slowTrace[i] {
				t.Fatalf("power traces diverge at byte %d of %d", i, len(fusedTrace))
			}
		}
		t.Fatalf("power trace lengths differ: %d vs %d", len(fusedTrace), len(slowTrace))
	}
	if fusedRep.EnergyJ != slowRep.EnergyJ || fusedRep.ExecutedCycles != slowRep.ExecutedCycles ||
		fusedRep.AvgPowerW != slowRep.AvgPowerW || fusedRep.ThermalCappedSec != slowRep.ThermalCappedSec ||
		fusedRep.QuotaThrottledSec != slowRep.QuotaThrottledSec {
		t.Errorf("reports diverge:\nfused: %+v\nnofuse: %+v", fusedRep, slowRep)
	}
}

// TestFusedMatchesNoFuseUnderQuota repeats the lockstep comparison across
// the bandwidth-pool regimes: a quota-only decision (no frequency or
// hotplug change) flips the pool from unlimited to starving, so the run
// spends most of its ticks in drained replays punctuated by refills. This
// is the scenario where replaying an unlimited-pool window against the
// finite pool would silently corrupt the pool accounting.
func TestFusedMatchesNoFuseUnderQuota(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	run := func(noFuse bool) (*sim.Report, uint64, []byte) {
		t.Helper()
		var trace bytes.Buffer
		p := newPulseLoad(4, map[time.Duration]float64{0: 1e12})
		s, err := sim.SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   &scriptMgr{steps: []mgrStep{{freq: max, cores: 4, quota: 0.02}}},
			Workloads: []workload.Workload{p},
			Seed:      7,
			NoFuse:    noFuse,
			PowerTrace: func(now, dt time.Duration, systemW float64, clusterW []float64) {
				traceBits(&trace, now, dt, systemW, clusterW)
			},
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep, s.FastTicks(), trace.Bytes()
	}
	fusedRep, fastTicks, fusedTrace := run(false)
	slowRep, _, slowTrace := run(true)
	if fastTicks == 0 {
		t.Fatal("fused run never took the fast path; the comparison is vacuous")
	}
	if fusedRep.QuotaThrottledSec == 0 {
		t.Fatal("quota never throttled; the comparison does not cover the drained regime")
	}
	if !bytes.Equal(fusedTrace, slowTrace) {
		t.Fatal("power traces diverge under quota throttling")
	}
	if fusedRep.EnergyJ != slowRep.EnergyJ || fusedRep.QuotaThrottledSec != slowRep.QuotaThrottledSec ||
		fusedRep.ExecutedCycles != slowRep.ExecutedCycles {
		t.Errorf("reports diverge:\nfused: %+v\nnofuse: %+v", fusedRep, slowRep)
	}
}

// TestFusedMatchesNoFuseUnderHotplugChurn repeats the lockstep comparison
// across repeated hotplug events: a scripted manager cycles the online set
// 4 → 2 → 4 → 1 → 4 under a saturated load, so a window recorded on one
// topology is a candidate for replay on another. Every online-state change
// must invalidate the retained window — a stale window replayed across a
// core-count change would misattribute executed cycles — and the run must
// still find fast ticks in the steady stretches between events.
func TestFusedMatchesNoFuseUnderHotplugChurn(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	steps := []mgrStep{
		{freq: max, cores: 4, quota: 1}, {freq: max, cores: 4, quota: 1},
		{freq: max, cores: 2, quota: 1}, {freq: max, cores: 2, quota: 1},
		{freq: max, cores: 4, quota: 1}, {freq: max, cores: 4, quota: 1},
		{freq: max, cores: 1, quota: 1}, {freq: max, cores: 1, quota: 1},
		{freq: max, cores: 4, quota: 1},
	}
	run := func(noFuse bool) (*sim.Report, uint64, []byte) {
		t.Helper()
		var trace bytes.Buffer
		p := newPulseLoad(4, map[time.Duration]float64{0: 1e12})
		s, err := sim.SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   &scriptMgr{steps: steps},
			Workloads: []workload.Workload{p},
			Seed:      7,
			NoFuse:    noFuse,
			PowerTrace: func(now, dt time.Duration, systemW float64, clusterW []float64) {
				traceBits(&trace, now, dt, systemW, clusterW)
			},
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep, s.FastTicks(), trace.Bytes()
	}
	fusedRep, fastTicks, fusedTrace := run(false)
	slowRep, _, slowTrace := run(true)
	if fastTicks == 0 {
		t.Fatal("fused run never took the fast path; the comparison is vacuous")
	}
	if fusedRep.AvgOnlineCores >= 4 {
		t.Fatal("hotplug never occurred; the comparison does not cover invalidation")
	}
	if !bytes.Equal(fusedTrace, slowTrace) {
		for i := range fusedTrace {
			if fusedTrace[i] != slowTrace[i] {
				t.Fatalf("power traces diverge at byte %d of %d under hotplug churn", i, len(fusedTrace))
			}
		}
		t.Fatalf("power trace lengths differ: %d vs %d", len(fusedTrace), len(slowTrace))
	}
	if fusedRep.EnergyJ != slowRep.EnergyJ || fusedRep.ExecutedCycles != slowRep.ExecutedCycles ||
		fusedRep.AvgOnlineCores != slowRep.AvgOnlineCores {
		t.Errorf("reports diverge:\nfused: %+v\nnofuse: %+v", fusedRep, slowRep)
	}
}

// TestFusedMatchesNoFuseUnderThermalTrips repeats the lockstep comparison
// in a regime where the thermal driver is active: everything pinned to
// f_max with a saturated workload heats the Nexus 5 past its 36 °C trip,
// so cap steps (and their invalidations) punctuate the run. Identity must
// survive them, and the caps must actually engage.
func TestFusedMatchesNoFuseUnderThermalTrips(t *testing.T) {
	max := platform.Nexus5().Table.Max().Freq
	run := func(noFuse bool) (*sim.Report, []byte) {
		t.Helper()
		var trace bytes.Buffer
		p := newPulseLoad(4, map[time.Duration]float64{0: 1e13})
		s, err := sim.SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   &scriptMgr{steps: []mgrStep{{freq: max, cores: 4, quota: 1}}},
			Workloads: []workload.Workload{p},
			Seed:      7,
			NoFuse:    noFuse,
			PowerTrace: func(now, dt time.Duration, systemW float64, clusterW []float64) {
				traceBits(&trace, now, dt, systemW, clusterW)
			},
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep, trace.Bytes()
	}
	fusedRep, fusedTrace := run(false)
	slowRep, slowTrace := run(true)
	if fusedRep.ThermalCappedSec == 0 {
		t.Fatal("run never tripped thermal caps; the comparison does not cover invalidation")
	}
	if !bytes.Equal(fusedTrace, slowTrace) {
		t.Fatal("power traces diverge under thermal capping")
	}
	if fusedRep.EnergyJ != slowRep.EnergyJ || fusedRep.ThermalCappedSec != slowRep.ThermalCappedSec {
		t.Errorf("reports diverge:\nfused: %+v\nnofuse: %+v", fusedRep, slowRep)
	}
}
