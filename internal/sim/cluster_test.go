package sim

import (
	"strings"
	"testing"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/metrics"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// clusteredMobi builds the per-cluster MobiCore manager for a platform.
func clusteredMobi(t *testing.T, plat platform.Platform) policy.Manager {
	t.Helper()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// clusteredGov builds "<gov>+load" with one governor instance per cluster.
func clusteredGov(t *testing.T, plat platform.Platform, gov string) policy.Manager {
	t.Helper()
	mgr, err := stack.Build(gov+"+load", plat)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func bigLittleRun(t *testing.T, mgr policy.Manager, seed int64) *Report {
	t.Helper()
	plat := platform.Nexus6P()
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.35,
		Threads:    4,
		RefFreq:    plat.ClusterSpecs()[0].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{wl},
		Seed:      seed,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func sameSeries(a, b metrics.Series) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// TestBigLittleDeterminism is the acceptance gate: equal seeds must produce
// identical traces on the heterogeneous platform under MobiCore and at
// least three stock governors.
func TestBigLittleDeterminism(t *testing.T) {
	plat := platform.Nexus6P()
	builders := map[string]func() policy.Manager{
		"mobicore":    func() policy.Manager { return clusteredMobi(t, plat) },
		"ondemand":    func() policy.Manager { return clusteredGov(t, plat, "ondemand") },
		"interactive": func() policy.Manager { return clusteredGov(t, plat, "interactive") },
		"schedutil":   func() policy.Manager { return clusteredGov(t, plat, "schedutil") },
	}
	for name, build := range builders {
		a := bigLittleRun(t, build(), 77)
		b := bigLittleRun(t, build(), 77)
		if a.AvgPowerW != b.AvgPowerW || a.ExecutedCycles != b.ExecutedCycles ||
			a.AvgFreqHz != b.AvgFreqHz || a.AvgOnlineCores != b.AvgOnlineCores {
			t.Errorf("%s: same seed diverged: %v/%v vs %v/%v",
				name, a.AvgPowerW, a.ExecutedCycles, b.AvgPowerW, b.ExecutedCycles)
		}
		for ci := range a.ClusterNames {
			if !sameSeries(a.ClusterFreqSeries[ci], b.ClusterFreqSeries[ci]) ||
				!sameSeries(a.ClusterCoreSeries[ci], b.ClusterCoreSeries[ci]) {
				t.Errorf("%s: cluster %s series diverged across identical seeds", name, a.ClusterNames[ci])
			}
		}
	}
}

// TestBigLittleClusterSeries checks the per-cluster telemetry: two named
// clusters, populated series, and the LITTLE-first placement keeping the
// big cluster mostly parked under a light load.
func TestBigLittleClusterSeries(t *testing.T) {
	rep := bigLittleRun(t, clusteredMobi(t, platform.Nexus6P()), 7)
	if len(rep.ClusterNames) != 2 || rep.ClusterNames[0] != "LITTLE" || rep.ClusterNames[1] != "big" {
		t.Fatalf("cluster names = %v, want [LITTLE big]", rep.ClusterNames)
	}
	for ci, name := range rep.ClusterNames {
		if rep.ClusterFreqSeries[ci].Len() == 0 || rep.ClusterCoreSeries[ci].Len() == 0 {
			t.Errorf("cluster %s series empty", name)
		}
	}
	if rep.AvgClusterCores[0] < 1 {
		t.Errorf("LITTLE avg cores = %.2f, want >= 1", rep.AvgClusterCores[0])
	}
	// A 4-thread 35% load fits comfortably on the LITTLE cluster: MobiCore
	// should keep the big cores parked nearly the whole session.
	if rep.AvgClusterCores[1] > 0.5 {
		t.Errorf("big avg cores = %.2f under light load, want mostly parked", rep.AvgClusterCores[1])
	}
	var sb strings.Builder
	if err := rep.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cluster LITTLE") || !strings.Contains(out, "cluster big") {
		t.Errorf("summary missing per-cluster lines:\n%s", out)
	}
}

// migrateManager moves every core to one cluster — the whole-SoC migration
// that exercises the grow-before-shrink hotplug ordering.
type migrateManager struct {
	target int // cluster index that gets all the cores
}

func (m *migrateManager) Name() string { return "migrate" }
func (m *migrateManager) Decide(in policy.Input) (policy.Decision, error) {
	views := in.Clusters
	freqs := make([]soc.Hz, len(in.Util))
	vec := make([]int, len(views))
	for ci, v := range views {
		for _, id := range v.CoreIDs {
			freqs[id] = v.Table.Min().Freq
		}
		if ci == m.target {
			vec[ci] = len(v.CoreIDs)
		}
	}
	return policy.Decision{TargetFreq: freqs, OnlineVec: vec, Quota: 1}, nil
}
func (m *migrateManager) Reset() {}

// TestOnlineVecClusterMigration: a valid decision may park the only
// currently-online cluster while waking another; the sim must apply the
// growth first instead of dying on the no-online-core invariant.
func TestOnlineVecClusterMigration(t *testing.T) {
	plat := platform.Nexus6P()
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.3, Threads: 2, RefFreq: plat.ClusterSpecs()[0].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:     plat,
		Manager:      &migrateManager{target: 1},
		Workloads:    []workload.Workload{wl},
		InitialCores: 4, // LITTLE only: cores 0-3
		Seed:         1,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(200 * time.Millisecond)
	if err != nil {
		t.Fatalf("whole-SoC migration to the big cluster failed: %v", err)
	}
	// Each cluster's online-count series samples the CPU as the latest
	// decision left it.
	last := func(ci int) float64 {
		ser := &rep.ClusterCoreSeries[ci]
		return ser.At(ser.Len() - 1).Value
	}
	if little, big := last(0), last(1); little != 0 || big != 4 {
		t.Errorf("after migration LITTLE=%v big=%v, want 0/4", little, big)
	}
}

// TestHeterogeneousInitialFreqRejected locks the per-cluster boot rule.
func TestHeterogeneousInitialFreqRejected(t *testing.T) {
	plat := platform.Nexus6P()
	mgr := clusteredMobi(t, plat)
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.3, Threads: 2, RefFreq: plat.ClusterSpecs()[0].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = SessionSpec{
		Platform:    plat,
		Manager:     mgr,
		Workloads:   []workload.Workload{wl},
		InitialFreq: plat.ClusterSpecs()[1].Table.Max().Freq,
	}.New()
	if err == nil {
		t.Error("explicit InitialFreq accepted on a heterogeneous platform")
	}
}

// TestPerClusterThermalResidency is the asymmetric-throttling acceptance
// test: under sustained full blast on the Nexus 6P profile the big
// cluster's zone engages its cap while the LITTLE cluster never does, the
// report carries per-cluster residency and temperature series, and the
// aggregate ThermalCappedSec remains the sum of the per-cluster figures.
func TestPerClusterThermalResidency(t *testing.T) {
	plat := platform.Nexus6P()
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 1.0,
		Threads:    8,
		RefFreq:    plat.ClusterSpecs()[1].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   clusteredGov(t, plat, "performance"),
		Workloads: []workload.Workload{wl},
		Seed:      11,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(40 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ClusterThermalSec[1] <= 0 {
		t.Fatalf("big cluster never thermally capped (max temp %.1f C)", rep.MaxClusterTempC[1])
	}
	if rep.ClusterThermalSec[0] != 0 {
		t.Errorf("LITTLE cluster capped for %.2f s, want 0 (max temp %.1f C)",
			rep.ClusterThermalSec[0], rep.MaxClusterTempC[0])
	}
	sum := 0.0
	for _, v := range rep.ClusterThermalSec {
		sum += v
	}
	if rep.ThermalCappedSec != sum {
		t.Errorf("aggregate residency %.4f != per-cluster sum %.4f", rep.ThermalCappedSec, sum)
	}
	if rep.MaxClusterTempC[1] <= rep.MaxClusterTempC[0] {
		t.Errorf("big max temp %.1f C not above LITTLE's %.1f C", rep.MaxClusterTempC[1], rep.MaxClusterTempC[0])
	}
	for ci, name := range rep.ClusterNames {
		if rep.ClusterTempSeries[ci].Len() == 0 {
			t.Errorf("cluster %s temperature series empty", name)
		}
	}
	var sb strings.Builder
	if err := rep.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "thermal capped") {
		t.Errorf("summary missing per-cluster thermal lines:\n%s", sb.String())
	}
}

// TestHomogeneousSingleZoneAggregates locks the backward-compatibility
// contract on a single-cluster platform: one thermal zone, per-cluster
// residency equal to the aggregate, temperature series mirroring TempSeries.
func TestHomogeneousSingleZoneAggregates(t *testing.T) {
	plat := platform.Nexus5()
	mgr, err := policy.AndroidDefault(plat.Table)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 1.0,
		Threads:    4,
		RefFreq:    plat.Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{wl},
		Seed:      5,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ClusterThermalSec) != 1 {
		t.Fatalf("homogeneous platform carries %d thermal residencies, want 1", len(rep.ClusterThermalSec))
	}
	if rep.ClusterThermalSec[0] != rep.ThermalCappedSec {
		t.Errorf("cluster residency %.4f != aggregate %.4f", rep.ClusterThermalSec[0], rep.ThermalCappedSec)
	}
	if rep.ThermalCappedSec <= 0 {
		t.Error("sustained full blast on Nexus 5 should engage the throttle")
	}
	if !sameSeries(rep.ClusterTempSeries[0], rep.TempSeries) {
		t.Error("single-zone cluster temp series should mirror the aggregate TempSeries")
	}
}
