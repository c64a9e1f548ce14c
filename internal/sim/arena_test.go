package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/scenario"
	"mobicore/internal/workload"
)

// arenaSpec builds one complete SessionSpec with fresh manager and
// workloads — specs are single-use, so every run needs a new one.
func arenaSpec(t *testing.T, plat platform.Platform, placer string, seed int64) SessionSpec {
	t.Helper()
	mgr := clusteredGov(t, plat, "ondemand")
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.5, Threads: 4, RefFreq: plat.ClusterSpecs()[0].Table.Max().Freq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{wl},
		Duration:  500 * time.Millisecond,
		Seed:      seed,
		Placer:    placer,
	}
}

// TestArenaReuseMatchesFresh runs a heterogeneous sequence of sessions —
// different platforms, topologies, placers, and seeds of a workload that
// draws from the session rng — back to back through ONE arena and checks
// every report deep-equals its fresh-allocation twin: the same spec run in
// a new, empty arena, whose first session allocates every buffer anew.
// This is the arena's core contract: reuse is invisible in the output.
func TestArenaReuseMatchesFresh(t *testing.T) {
	runs := []struct {
		name     string
		plat     platform.Platform
		placer   string
		seed     int64
		scenario bool
	}{
		{"nexus5", platform.Nexus5(), "", 1, false},
		{"nexus6p", platform.Nexus6P(), "", 2, false},     // grows: 4 → 8 cores, 1 → 2 clusters
		{"nexus5-again", platform.Nexus5(), "", 3, false}, // shrinks back
		{"sd855-eas", platform.SD855(), PlacerEAS, 4, false},
		{"nexus5-eas", platform.Nexus5(), PlacerEAS, 5, false},
		// The arena reseeds its rng: each session's stream starts afresh.
		{"scenario-6", platform.Nexus5(), "", 6, true},
		{"scenario-7", platform.Nexus5(), "", 7, true},
		{"scenario-6-again", platform.Nexus5(), "", 6, true},
	}
	a := NewArena()
	for _, run := range runs {
		spec := func() SessionSpec {
			spec := arenaSpec(t, run.plat, run.placer, run.seed)
			if run.scenario {
				w, err := scenario.FromProfile(scenario.DayInTheLife())
				if err != nil {
					t.Fatal(err)
				}
				spec.Workloads = []workload.Workload{w}
				spec.Duration = 30 * time.Second // long enough for several phase draws
			}
			return spec
		}
		fresh, doneF, err := spec().RunIn(context.Background(), NewArena())
		if err != nil {
			t.Fatalf("%s fresh: %v", run.name, err)
		}
		pooled, doneP, err := spec().RunIn(context.Background(), a)
		if err != nil {
			t.Fatalf("%s arena: %v", run.name, err)
		}
		if doneF != doneP {
			t.Errorf("%s: done %v vs %v", run.name, doneF, doneP)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("%s: arena report differs from fresh report", run.name)
		}
	}
}

// TestArenaReportsSurviveReuse: a report retained from an earlier arena
// session must not change when the arena runs its next cell — series are
// deep copied at report time.
func TestArenaReportsSurviveReuse(t *testing.T) {
	a := NewArena()
	first, _, err := arenaSpec(t, platform.Nexus6P(), "", 11).RunIn(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := arenaSpec(t, platform.Nexus6P(), "", 11).RunIn(context.Background(), NewArena())
	if err != nil {
		t.Fatal(err)
	}
	// Churn the arena with different-shaped sessions.
	for seed := int64(20); seed < 23; seed++ {
		if _, _, err := arenaSpec(t, platform.Nexus5(), PlacerEAS, seed).RunIn(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first, want) {
		t.Error("retained report was corrupted by subsequent arena sessions")
	}
}

// TestArenaSteadyStateAllocs: after one warm-up session, a repeated
// same-shape session should construct and run with near-zero steady-state
// growth — the arena's reason to exist. The budget is deliberately loose
// (managers and workloads still allocate at construction); what it guards
// is the engine's own per-session footprint staying flat instead of
// re-growing series and scratch every cell.
func TestArenaSteadyStateAllocs(t *testing.T) {
	a := NewArena()
	run := func() {
		if _, _, err := arenaSpec(t, platform.Nexus5(), "", 9).RunIn(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up: size every buffer
	fresh := testing.AllocsPerRun(3, func() {
		if _, _, err := arenaSpec(t, platform.Nexus5(), "", 9).RunIn(context.Background(), NewArena()); err != nil {
			t.Fatal(err)
		}
	})
	pooled := testing.AllocsPerRun(3, run)
	if pooled >= fresh {
		t.Errorf("arena session allocates %.0f objects, fresh %.0f — reuse is not paying", pooled, fresh)
	}
	t.Logf("allocs/session: fresh %.0f, arena %.0f", fresh, pooled)
}
