package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/games"
	"mobicore/internal/platform"
	"mobicore/internal/scenario"
	"mobicore/internal/sim"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// hintingGame is a game that also hints steady, covering the wrapper
// variant no in-tree workload needs yet.
type hintingGame struct{ *games.Game }

func (hintingGame) SteadyHint() bool { return false }

func newGame(t *testing.T) *games.Game {
	t.Helper()
	g, err := games.New(games.SubwaySurf())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newDayInLife(t *testing.T, seed int64, dur time.Duration) *scenario.Workload {
	t.Helper()
	gen, err := scenario.NewGenerator(scenario.DayInTheLife(), seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := scenario.New(gen.Generate(dur))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newSinusoid(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.NewSinusoid("noisy", 6, 1.5e9, 0.6, 2*time.Second, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWrapWorkloadForwardsOptionalInterfaces(t *testing.T) {
	for _, tc := range []struct {
		name         string
		w            workload.Workload
		hint, frames bool
	}{
		{"scenario", newDayInLife(t, 1, time.Second), true, false},
		{"sinusoid", newSinusoid(t), false, false},
		{"game", newGame(t), false, true},
		{"hinting game", hintingGame{newGame(t)}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ticks := 0
			wrapped := wrapWorkload(tc.w, func() { ticks++ })
			if wrapped.Name() != tc.w.Name() {
				t.Errorf("Name %q, want %q", wrapped.Name(), tc.w.Name())
			}
			h, hint := wrapped.(workload.SteadyHinter)
			if hint != tc.hint {
				t.Fatalf("wrapped SteadyHinter = %v, inner = %v", hint, tc.hint)
			}
			f, frames := wrapped.(frameSource)
			if frames != tc.frames {
				t.Fatalf("wrapped frameSource = %v, inner = %v", frames, tc.frames)
			}
			wrapped.Tick(0, time.Millisecond, rand.New(rand.NewSource(1)))
			if ticks != 1 {
				t.Errorf("onTick ran %d times for one Tick", ticks)
			}
			if hint && h.SteadyHint() != tc.w.(workload.SteadyHinter).SteadyHint() {
				t.Error("SteadyHint not forwarded")
			}
			if frames {
				inner := tc.w.(frameSource)
				if f.AvgFPS() != inner.AvgFPS() || f.DropRate() != inner.DropRate() {
					t.Error("frame statistics not forwarded")
				}
			}
		})
	}
}

// sessionCase builds one fresh session per call, so the wrapped and the
// plain run each get their own manager and workload instances.
type sessionCase struct {
	name  string
	build func(t *testing.T) sim.SessionSpec
}

func sessionCases() []sessionCase {
	spec := func(t *testing.T, plat platform.Platform, policy, placer string, w workload.Workload, dur time.Duration) sim.SessionSpec {
		t.Helper()
		mgr, err := stack.Build(policy, plat)
		if err != nil {
			t.Fatal(err)
		}
		return sim.SessionSpec{Platform: plat, Manager: mgr, Workloads: []workload.Workload{w}, Duration: dur, Seed: 7, Placer: placer}
	}
	return []sessionCase{
		{"dayinlife nexus6p", func(t *testing.T) sim.SessionSpec {
			return spec(t, platform.Nexus6P(), "mobicore", "", newDayInLife(t, 3, 20*time.Second), 20*time.Second)
		}},
		{"noisy sd855 eas", func(t *testing.T) sim.SessionSpec {
			return spec(t, platform.SD855(), "mobicore", sim.PlacerEAS, newSinusoid(t), 3*time.Second)
		}},
		{"game nexus5", func(t *testing.T) sim.SessionSpec {
			return spec(t, platform.Nexus5(), "android-default", "", newGame(t), 3*time.Second)
		}},
	}
}

// runSession runs a session to its end and returns the report and the
// fast-path tick count.
func runSession(t *testing.T, sp sim.SessionSpec) (*sim.Report, uint64) {
	t.Helper()
	s, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(sp.Duration)
	if err != nil {
		t.Fatal(err)
	}
	return rep, s.FastTicks()
}

// TestInstrumentedSessionMatchesPlain locks the probe's fidelity: a session
// with every timing wrapper and the PowerTrace hook installed takes the
// fast path on exactly the same ticks and reports exactly the same bytes.
func TestInstrumentedSessionMatchesPlain(t *testing.T) {
	tr := newTracer()
	for _, tc := range sessionCases() {
		t.Run(tc.name, func(t *testing.T) {
			plain, plainFast := runSession(t, tc.build(t))
			p := &probe{}
			wrapped, wrappedFast := runSession(t, instrument(tc.build(t), p, tr.now))
			if wrappedFast != plainFast {
				t.Errorf("FastTicks %d wrapped, %d plain", wrappedFast, plainFast)
			}
			if got, want := reportsDigest([]*sim.Report{wrapped}), reportsDigest([]*sim.Report{plain}); got != want {
				t.Errorf("report digest %s wrapped, %s plain", got, want)
			}
			if wrapped.Policy != plain.Policy {
				t.Errorf("Policy %q wrapped, %q plain", wrapped.Policy, plain.Policy)
			}
			if p.hookAt == 0 || p.tickEnd == 0 {
				t.Error("the probe's clock reads never ran")
			}
		})
	}
}

// TestCellClockKeepsFleetOutput runs a small fleet — a game column (frame
// statistics) and a scenario column (steady hints) — with and without the
// fleet cell timers and expects identical stores, and one timing per cell.
func TestCellClockKeepsFleetOutput(t *testing.T) {
	gen, err := scenario.NewGenerator(scenario.DayInTheLife(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(2 * time.Second)
	spec := fleet.Spec{
		Platforms: []platform.Platform{platform.Nexus5()},
		Policies:  []fleet.PolicyFactory{fleet.Policy("mobicore"), fleet.Policy("android-default")},
		Workloads: []fleet.WorkloadFactory{
			{Name: "game", New: func() ([]workload.Workload, error) {
				g, err := games.New(games.SubwaySurf())
				return []workload.Workload{g}, err
			}},
			{Name: "replay", New: func() ([]workload.Workload, error) {
				w, err := scenario.New(tr)
				return []workload.Workload{w}, err
			}},
		},
		Duration: 2 * time.Second,
		Parallel: 2,
	}
	dir := t.TempDir()
	run := func(spec fleet.Spec, name string) string {
		spec.StoreDir = filepath.Join(dir, name)
		if _, err := fleet.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		d, err := storeDigest(spec.StoreDir, "")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cc := &cellClock{tr: newTracer()}
	if plain, timed := run(spec, "plain"), run(cc.wrap(spec), "timed"); plain != timed {
		t.Errorf("store digest %s timed, %s plain", timed, plain)
	}
	if len(cc.cellMS) != 4 || len(cc.setupUS) != 4 || len(cc.buildUS) != 4 {
		t.Errorf("timed %d cells, %d set-ups, %d builds; want 4 each", len(cc.cellMS), len(cc.setupUS), len(cc.buildUS))
	}
}
