package sim

import (
	"math"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/workload"
)

func traceSim(t *testing.T, plat platform.Platform, hook func(now, dt time.Duration, systemW float64, clusterW []float64)) *Sim {
	t.Helper()
	mgr, err := policy.AndroidDefault(plat.Table)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.5, Threads: 4, RefFreq: plat.ClusterSpecs()[0].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:   plat,
		Manager:    mgr,
		Workloads:  []workload.Workload{wl},
		Seed:       7,
		PowerTrace: hook,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPowerTraceHook: the hook fires once per tick with the tick's start
// time, and integrating systemW·dt reproduces the report's EnergyJ exactly.
// The per-cluster shares sum to system minus the platform floor share.
func TestPowerTraceHook(t *testing.T) {
	plat := platform.Nexus5()
	var (
		ticks    int
		joules   float64
		lastNow  time.Duration = -1
		clusters int
	)
	s := traceSim(t, plat, func(now, dt time.Duration, systemW float64, clusterW []float64) {
		ticks++
		joules += systemW * dt.Seconds()
		if now <= lastNow {
			t.Fatalf("trace time went backwards: %v after %v", now, lastNow)
		}
		lastNow = now
		clusters = len(clusterW)
		if systemW <= 0 {
			t.Fatalf("non-positive system power %v at %v", systemW, now)
		}
	})
	rep, err := s.Run(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 200 {
		t.Errorf("hook fired %d times, want 200 (one per 1 ms tick)", ticks)
	}
	if clusters != len(plat.ClusterSpecs()) {
		t.Errorf("cluster watts has %d entries, want %d", clusters, len(plat.ClusterSpecs()))
	}
	if math.Abs(joules-rep.EnergyJ) > 1e-9*(1+rep.EnergyJ) {
		t.Errorf("trace integral %.9f J != report energy %.9f J", joules, rep.EnergyJ)
	}
}

// TestPowerTraceMatchesUntraced: installing the hook never changes the
// physics — the traced session's report equals the untraced one's.
func TestPowerTraceMatchesUntraced(t *testing.T) {
	run := func(hook func(now, dt time.Duration, systemW float64, clusterW []float64)) *Report {
		t.Helper()
		s := traceSim(t, platform.Nexus5(), hook)
		rep, err := s.Run(150 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	traced := run(func(_, _ time.Duration, _ float64, _ []float64) {})
	plain := run(nil)
	if traced.EnergyJ != plain.EnergyJ || traced.ExecutedCycles != plain.ExecutedCycles ||
		traced.AvgFreqHz != plain.AvgFreqHz {
		t.Errorf("trace hook perturbed the run: %.9f J vs %.9f J", traced.EnergyJ, plain.EnergyJ)
	}
}

// TestStepAllocs locks the per-tick allocation diet after pooling every
// scheduler and per-tick buffer: a steady-state Step (including its
// amortized share of policy samples) averages 1 alloc/op on this
// workload — the Result.BusySeconds slice that escapes to the caller —
// down from 13 before pooling started and 11 before the scheduler's
// budget/online/freq/runnable scratch, the CPU snapshots, and the
// utilization buffer were pooled. The hotalloc analyzer (cmd/mobilint)
// guards the annotated functions statically; this test guards the
// dynamic total.
func TestStepAllocs(t *testing.T) {
	s := traceSim(t, platform.Nexus5(), nil)
	if _, err := s.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	// The warm tick loop is fully pooled: scheduler results reuse the
	// Sim's busy-seconds buffer, the CPU is read in place, and every
	// per-sample slice draws from arena-style scratch. The
	// fractional budget tolerates rare runtime-internal noise only.
	const budget = 0.5
	if allocs > budget {
		t.Errorf("Step allocates %.1f objects/op, budget %.1f — did a pooled slice regress?", allocs, budget)
	}
}
