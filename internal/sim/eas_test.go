package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/workload"
)

func easLoop(t *testing.T, plat platform.Platform, util float64, threads int) workload.Workload {
	t.Helper()
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: util,
		Threads:    threads,
		RefFreq:    plat.ClusterSpecs()[0].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func easManager(t *testing.T, plat platform.Platform) policy.Manager {
	t.Helper()
	return clusteredGov(t, plat, "schedutil")
}

func TestConfigRejectsUnknownPlacer(t *testing.T) {
	plat := platform.Nexus5()
	_, err := SessionSpec{
		Platform:  plat,
		Manager:   clusteredMobi(t, plat),
		Workloads: []workload.Workload{easLoop(t, plat, 0.3, 2)},
		Placer:    "quantum",
	}.New()
	if err == nil || !strings.Contains(err.Error(), "placer") {
		t.Fatalf("unknown placer accepted: %v", err)
	}
}

// TestEASMatchesGreedyOnHomogeneous is the sim-level greedy-equivalence
// guarantee: a homogeneous session under the EAS placer reproduces the
// greedy session's report exactly (every aggregate, every series sample).
func TestEASMatchesGreedyOnHomogeneous(t *testing.T) {
	run := func(placer string) *Report {
		plat := platform.Nexus5()
		s, err := SessionSpec{
			Platform:  plat,
			Manager:   clusteredMobi(t, plat),
			Workloads: []workload.Workload{easLoop(t, plat, 0.6, 4)},
			Seed:      3,
			Placer:    placer,
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
	g, e := run(PlacerGreedy), run(PlacerEAS)
	if g.EnergyJ != e.EnergyJ || g.ExecutedCycles != e.ExecutedCycles ||
		g.AvgFreqHz != e.AvgFreqHz || g.AvgOnlineCores != e.AvgOnlineCores {
		t.Errorf("homogeneous EAS diverged from greedy: energy %v vs %v, cycles %v vs %v",
			g.EnergyJ, e.EnergyJ, g.ExecutedCycles, e.ExecutedCycles)
	}
	if g.Placer != PlacerGreedy || e.Placer != PlacerEAS {
		t.Errorf("placer labels %q/%q, want greedy/eas", g.Placer, e.Placer)
	}
}

// TestClusterEnergyAttribution: per-cluster attributed joules plus the
// platform floor reproduce the monitor's total energy, and the sampled
// cumulative series is monotone ending at the total.
func TestClusterEnergyAttribution(t *testing.T) {
	plat := platform.SD855()
	dur := 2 * time.Second
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   easManager(t, plat),
		Workloads: []workload.Workload{easLoop(t, plat, 0.5, 4)},
		Seed:      7,
		Placer:    PlacerEAS,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ClusterEnergyJ) != 3 || len(rep.ClusterEnergySeries) != 3 {
		t.Fatalf("attribution arity %d/%d, want 3/3", len(rep.ClusterEnergyJ), len(rep.ClusterEnergySeries))
	}
	sum := 0.0
	for ci, j := range rep.ClusterEnergyJ {
		if j < 0 {
			t.Errorf("cluster %d attributed negative energy %v", ci, j)
		}
		sum += j
	}
	floor := plat.Power.BaseWatts * dur.Seconds()
	if math.Abs(sum+floor-rep.EnergyJ) > 1e-6*rep.EnergyJ+1e-9 {
		t.Errorf("Σ cluster %.6f + floor %.6f != total %.6f J", sum, floor, rep.EnergyJ)
	}
	for ci, series := range rep.ClusterEnergySeries {
		if series.Len() == 0 {
			t.Fatalf("cluster %d energy series empty", ci)
		}
		prev := -1.0
		for i := 0; i < series.Len(); i++ {
			v := series.At(i).Value
			if v < prev {
				t.Fatalf("cluster %d energy series not monotone at %d", ci, i)
			}
			prev = v
		}
		if last := series.At(series.Len() - 1).Value; math.Abs(last-rep.ClusterEnergyJ[ci]) > 1e-9+1e-6*rep.ClusterEnergyJ[ci] {
			t.Errorf("cluster %d series ends at %v, total %v", ci, last, rep.ClusterEnergyJ[ci])
		}
	}
}

// TestSD855EndToEnd drives the three-cluster profile under the EAS placer
// and checks the summary renders one section per cluster plus the placer
// line.
func TestSD855EndToEnd(t *testing.T) {
	plat := platform.SD855()
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   clusteredMobi(t, plat),
		Workloads: []workload.Workload{easLoop(t, plat, 0.5, 6)},
		Seed:      1,
		Placer:    PlacerEAS,
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
	out := sb.String()
	for _, want := range []string{"placer:          eas", "cluster silver:", "cluster gold:", "cluster prime:", "energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
