package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

func busyLoop(t *testing.T, util float64, threads int) workload.Workload {
	t.Helper()
	w, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: util,
		Threads:    threads,
		RefFreq:    soc.MSM8974Table().Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func androidDefault(t *testing.T) policy.Manager {
	t.Helper()
	mgr, err := policy.AndroidDefault(soc.MSM8974Table())
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func mobi(t *testing.T) policy.Manager {
	t.Helper()
	m, err := core.NewClusteredForPlatform(platform.Nexus5(), core.DefaultTunables(), core.DefaultClusterTunables(), false)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	good := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.5, 4)},
	}
	if _, err := good.New(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	bad := good
	bad.Manager = nil
	if _, err := bad.New(); err == nil {
		t.Error("nil manager accepted")
	}
	bad = good
	bad.Workloads = nil
	if _, err := bad.New(); err == nil {
		t.Error("no workloads accepted")
	}
	bad = good
	bad.Tick = -time.Millisecond
	if _, err := bad.New(); err == nil {
		t.Error("negative tick accepted")
	}
	bad = good
	bad.SamplePeriod = time.Microsecond
	if _, err := bad.New(); err == nil {
		t.Error("sample period below tick accepted")
	}
	bad = good
	bad.InitialFreq = 301 * soc.MHz
	if _, err := bad.New(); err == nil {
		t.Error("non-OPP initial frequency accepted")
	}
	bad = good
	bad.InitialCores = 9
	if _, err := bad.New(); err == nil {
		t.Error("too many initial cores accepted")
	}
}

func TestAndroidDefaultControlLoop(t *testing.T) {
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.30, 4)},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgPowerW <= 0 {
		t.Error("average power should be positive")
	}
	if rep.AvgPowerW > 2.5 {
		t.Errorf("30%% load should not draw full-blast power, got %.3f W", rep.AvgPowerW)
	}
	if rep.AvgOnlineCores < 1 || rep.AvgOnlineCores > 4 {
		t.Errorf("avg cores = %.2f outside [1,4]", rep.AvgOnlineCores)
	}
	if rep.AvgQuota != 1 {
		t.Errorf("stock Android must not touch the quota, got %.2f", rep.AvgQuota)
	}
	if rep.ExecutedCycles == 0 {
		t.Error("no work executed")
	}
}

// TestGovernorTracksLoad: ondemand must run a light load at low frequency
// and a heavy load at high frequency.
func TestGovernorTracksLoad(t *testing.T) {
	run := func(util float64) *Report {
		s, err := SessionSpec{
			Platform:  platform.Nexus5().WithoutThrottle(),
			Manager:   androidDefault(t),
			Workloads: []workload.Workload{busyLoop(t, util, 4)},
			Seed:      1,
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	light := run(0.10)
	heavy := run(0.95)
	if light.AvgFreqHz >= heavy.AvgFreqHz {
		t.Errorf("light load avg freq (%.0f) should be below heavy load (%.0f)",
			light.AvgFreqHz, heavy.AvgFreqHz)
	}
	if light.AvgPowerW >= heavy.AvgPowerW {
		t.Errorf("light load power (%.3f W) should be below heavy load (%.3f W)",
			light.AvgPowerW, heavy.AvgPowerW)
	}
}

// TestMobiCoreSavesPowerOnSteadyLoad is the headline claim (Fig. 9a): on the
// hand-written benchmark MobiCore draws less than the Android default.
func TestMobiCoreSavesPowerOnSteadyLoad(t *testing.T) {
	run := func(mgr policy.Manager) *Report {
		s, err := SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   mgr,
			Workloads: []workload.Workload{busyLoop(t, 0.30, 4)},
			Seed:      7,
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	def := run(androidDefault(t))
	mob := run(mobi(t))
	if mob.AvgPowerW >= def.AvgPowerW {
		t.Errorf("MobiCore (%.1f mW) should save power vs default (%.1f mW) at 30%% load",
			mob.AvgPowerW*1000, def.AvgPowerW*1000)
	}
	t.Logf("default=%.1f mW mobicore=%.1f mW saving=%.1f%%",
		def.AvgPowerW*1000, mob.AvgPowerW*1000,
		100*(def.AvgPowerW-mob.AvgPowerW)/def.AvgPowerW)
}

func TestDeterminism(t *testing.T) {
	run := func() *Report {
		s, err := SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   mobi(t),
			Workloads: []workload.Workload{busyLoop(t, 0.40, 4)},
			Seed:      99,
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(3 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.AvgPowerW != b.AvgPowerW || a.ExecutedCycles != b.ExecutedCycles ||
		a.AvgFreqHz != b.AvgFreqHz || a.AvgOnlineCores != b.AvgOnlineCores {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestThermalThrottleEngages: sustained full blast on the Nexus 5 profile
// must engage the thermal cap (the Fig. 4 mechanism).
func TestThermalThrottleEngages(t *testing.T) {
	perf, err := policy.Pinned(soc.MSM8974Table(), soc.MSM8974Table().Max().Freq, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   perf,
		Workloads: []workload.Workload{busyLoop(t, 1.0, 4)},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(120 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThermalCappedSec == 0 {
		t.Errorf("sustained full blast never throttled (max temp %.1f C)", rep.MaxTempC)
	}
	// The skin trip (36 °C) must have been reached and held near.
	if rep.MaxTempC < 35 {
		t.Errorf("max temp %.1f C too low for full blast", rep.MaxTempC)
	}
}

// TestWithoutThrottleReachesIRTemp reproduces the Fig. 2a measurement: the
// unthrottled Nexus 5 settles near 42 °C at full blast.
func TestWithoutThrottleReachesIRTemp(t *testing.T) {
	perf, err := policy.Pinned(soc.MSM8974Table(), soc.MSM8974Table().Max().Freq, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  platform.Nexus5().WithoutThrottle(),
		Manager:   perf,
		Workloads: []workload.Workload{busyLoop(t, 1.0, 4)},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(180 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxTempC-42.1) > 2.5 {
		t.Errorf("steady-state temp = %.1f C, want ≈42.1 C (Fig. 2a)", rep.MaxTempC)
	}
}

func TestRunUntilDone(t *testing.T) {
	steps := []workload.Step{{Duration: 200 * time.Millisecond, CyclesPerSec: 1e9}}
	scripted, err := workload.NewScripted("finite", 2, steps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{scripted},
		Seed:      1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, done, err := s.RunUntilDone(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("finite workload never finished")
	}
	if rep.Duration >= 10*time.Second {
		t.Error("RunUntilDone should stop early")
	}
}

func TestReportSummaryRendering(t *testing.T) {
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
	var sb strings.Builder
	if err := rep.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"policy:", "avg power:", "Nexus 5"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}
}
