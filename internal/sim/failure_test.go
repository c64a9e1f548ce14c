package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// failingManager errors after a set number of decisions.
type failingManager struct {
	after int
	calls int
}

func (f *failingManager) Name() string { return "failing" }
func (f *failingManager) Decide(in policy.Input) (policy.Decision, error) {
	f.calls++
	if f.calls > f.after {
		return policy.Decision{}, errors.New("synthetic policy failure")
	}
	freqs := make([]soc.Hz, len(in.Util))
	for _, v := range in.Clusters {
		for _, id := range v.CoreIDs {
			freqs[id] = v.Table.Min().Freq
		}
	}
	return policy.Decision{TargetFreq: freqs, OnlineCores: len(in.Util), Quota: 1}, nil
}
func (f *failingManager) Reset() { f.calls = 0 }

// rogueManager returns structurally invalid decisions.
type rogueManager struct {
	decision policy.Decision
}

func (r *rogueManager) Name() string                                 { return "rogue" }
func (r *rogueManager) Decide(policy.Input) (policy.Decision, error) { return r.decision, nil }
func (r *rogueManager) Reset()                                       {}

func TestPolicyErrorSurfaces(t *testing.T) {
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   &failingManager{after: 2},
		Workloads: []workload.Workload{busyLoop(t, 0.5, 4)},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(time.Second)
	if err == nil {
		t.Fatal("policy failure swallowed")
	}
	if !strings.Contains(err.Error(), "synthetic policy failure") {
		t.Errorf("error lost its cause: %v", err)
	}
}

// TestRogueDecisionsRejected: the engine must reject every class of
// invalid decision rather than corrupting the SoC state.
func TestRogueDecisionsRejected(t *testing.T) {
	table := soc.MSM8974Table()
	legal := make([]soc.Hz, 4)
	for i := range legal {
		legal[i] = table.Min().Freq
	}
	cases := map[string]policy.Decision{
		"non-OPP frequency": {TargetFreq: []soc.Hz{301 * soc.MHz, legal[1], legal[2], legal[3]}, OnlineCores: 4, Quota: 1},
		"zero cores":        {TargetFreq: legal, OnlineCores: 0, Quota: 1},
		"too many cores":    {TargetFreq: legal, OnlineCores: 9, Quota: 1},
		"zero quota":        {TargetFreq: legal, OnlineCores: 4, Quota: 0},
		"quota above one":   {TargetFreq: legal, OnlineCores: 4, Quota: 1.5},
		"short freq slice":  {TargetFreq: legal[:2], OnlineCores: 4, Quota: 1},
	}
	for name, dec := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := SessionSpec{
				Platform:  platform.Nexus5(),
				Manager:   &rogueManager{decision: dec},
				Workloads: []workload.Workload{busyLoop(t, 0.5, 4)},
				Seed:      1,
			}.New()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(200 * time.Millisecond); err == nil {
				t.Error("invalid decision accepted")
			}
		})
	}
}

// TestMinQuotaDoesNotDeadlock: a manager that pins the quota at the floor
// still lets the simulation make progress (the pool refills each period).
// The session boots at full bandwidth; the first sample pins the floor, and
// every check below covers only the 2 s after it.
func TestMinQuotaDoesNotDeadlock(t *testing.T) {
	table := soc.MSM8974Table()
	legal := make([]soc.Hz, 4)
	for i := range legal {
		legal[i] = table.Max().Freq
	}
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   &rogueManager{decision: policy.Decision{TargetFreq: legal, OnlineCores: 4, Quota: 0.05}},
		Workloads: []workload.Workload{busyLoop(t, 1.0, 4)},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Run(s.spec.SamplePeriod)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quota() != 0.05 {
		t.Fatalf("quota after the first sample = %v, want the 0.05 floor", s.Quota())
	}
	after, err := s.Run(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	executed := after.ExecutedCycles - before.ExecutedCycles
	if executed == 0 {
		t.Error("quota floor starved the system completely")
	}
	// Aggregate utilization must respect the quota (×4 cores ×5% ≈ 0.2
	// core-seconds per second).
	window := (after.Duration - before.Duration).Seconds()
	maxServed := 0.05 * 4 * window * float64(table.Max().Freq) * 1.05
	if executed > maxServed {
		t.Errorf("executed %.3g cycles, quota permits at most %.3g", executed, maxServed)
	}
	if after.QuotaThrottledSec-before.QuotaThrottledSec == 0 {
		t.Error("hard quota with saturating load should report throttled time")
	}
}

// TestOverloadedSoC: demand far beyond capacity must not break accounting —
// utilization saturates at 1, power at the full-blast ceiling.
func TestOverloadedSoC(t *testing.T) {
	wl, err := workload.NewScripted("flood", 8, []workload.Step{
		{Duration: 2 * time.Second, CyclesPerSec: 1e12}, // ~100× capacity
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := policy.AndroidDefault(soc.MSM8974Table())
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  platform.Nexus5().WithoutThrottle(),
		Manager:   mgr,
		Workloads: []workload.Workload{wl},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgUtil < 0.95 {
		t.Errorf("overloaded SoC utilization = %.2f, want ≈1", rep.AvgUtil)
	}
	if rep.AvgPowerW > 2.5 {
		t.Errorf("power %.3f W above the physical full-blast ceiling", rep.AvgPowerW)
	}
}

// TestEnergyConservation: EnergyJ must equal AvgPowerW × Duration for any
// run — the monitor and meter must agree with themselves.
func TestEnergyConservation(t *testing.T) {
	for _, util := range []float64{0.1, 0.5, 1.0} {
		s, err := SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   androidDefault(t),
			Workloads: []workload.Workload{busyLoop(t, util, 4)},
			Seed:      3,
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(3 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := rep.AvgPowerW * rep.Duration.Seconds()
		if math.Abs(rep.EnergyJ-want)/want > 1e-9 {
			t.Errorf("util %.1f: energy %.6f J != avg power × time %.6f J", util, rep.EnergyJ, want)
		}
	}
}

// TestSeriesRecorded: the report's sampled series cover the session at the
// sampling period.
func TestSeriesRecorded(t *testing.T) {
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.5, 4)},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := 20 // 1 s at 50 ms sampling
	for name, n := range map[string]int{
		"freq":  rep.FreqSeries.Len(),
		"cores": rep.CoreSeries.Len(),
		"util":  rep.UtilSeries.Len(),
		"quota": rep.QuotaSeries.Len(),
		"temp":  rep.TempSeries.Len(),
	} {
		if n < want-1 || n > want+1 {
			t.Errorf("%s series has %d samples, want ≈%d", name, n, want)
		}
	}
}
