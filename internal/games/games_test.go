package games

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestProfileValidate(t *testing.T) {
	good := SubwaySurf()
	if err := good.Validate(); err != nil {
		t.Fatalf("stock profile rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"zero fps", func(p *Profile) { p.TargetFPS = 0 }},
		{"zero frame cycles", func(p *Profile) { p.FrameCycles = 0 }},
		{"parallel above one", func(p *Profile) { p.ParallelFrac = 1.5 }},
		{"negative workers", func(p *Profile) { p.Workers = -1 }},
		{"swing without period", func(p *Profile) { p.SwingAmp = 0.5; p.SwingPeriod = 0 }},
		{"burst without timing", func(p *Profile) { p.BurstMult = 2; p.BurstEvery = 0 }},
		{"negative noise", func(p *Profile) { p.NoiseStd = -1 }},
		{"zero queue", func(p *Profile) { p.MaxQueue = 0 }},
		// NaN passes every `x <= 0` style check, and a NaN, infinite or
		// over-1e9 TargetFPS paces frames at an interval of 0 or less,
		// which never lets a tick finish. No game is ticked here, so a
		// regression fails instead of hanging.
		{"NaN fps", func(p *Profile) { p.TargetFPS = math.NaN() }},
		{"+Inf fps", func(p *Profile) { p.TargetFPS = math.Inf(1) }},
		{"fps above 1e9", func(p *Profile) { p.TargetFPS = 2e9 }},
		{"fps interval overflows", func(p *Profile) { p.TargetFPS = 1e-11 }},
		{"NaN frame cycles", func(p *Profile) { p.FrameCycles = math.NaN() }},
		{"+Inf frame cycles", func(p *Profile) { p.FrameCycles = math.Inf(1) }},
		{"NaN parallel frac", func(p *Profile) { p.ParallelFrac = math.NaN() }},
		{"NaN swing", func(p *Profile) { p.SwingAmp = math.NaN() }},
		{"NaN burst mult", func(p *Profile) { p.BurstMult = math.NaN() }},
		{"+Inf burst mult", func(p *Profile) { p.BurstMult = math.Inf(1) }},
		{"NaN noise", func(p *Profile) { p.NoiseStd = math.NaN() }},
		{"+Inf noise", func(p *Profile) { p.NoiseStd = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := SubwaySurf()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
			if _, err := New(p); err == nil {
				t.Error("New accepted")
			}
		})
	}
}

func TestAllFiveTitles(t *testing.T) {
	profiles := All()
	if len(profiles) != 5 {
		t.Fatalf("game count = %d, want the thesis' 5", len(profiles))
	}
	want := []string{"Real Racing 3", "Subway Surf", "Badland", "Angry Birds", "Asphalt 8"}
	for i, p := range profiles {
		if p.Name != want[i] {
			t.Errorf("game %d = %q, want %q (paper numbering)", i, p.Name, want[i])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if _, err := New(p); err != nil {
			t.Errorf("New(%s): %v", p.Name, err)
		}
	}
}

func TestGameThreads(t *testing.T) {
	g, err := New(SubwaySurf())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(g.Threads()), 1+SubwaySurf().Workers; got != want {
		t.Errorf("threads = %d, want %d", got, want)
	}
	if g.Done() {
		t.Error("games never report done")
	}
}

// TestGameFPSWithInstantExecution: when every deposited cycle executes
// immediately, the game completes frames at its target pacing.
func TestGameFPSWithInstantExecution(t *testing.T) {
	prof := AngryBirds()
	g, err := New(prof)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := time.Duration(0)
	for i := 0; i < 10_000; i++ {
		g.Tick(now, time.Millisecond, rng)
		for _, th := range g.Threads() {
			th.Execute(th.Pending(), 0)
		}
		now += time.Millisecond
	}
	fps := g.AvgFPS()
	if fps < prof.TargetFPS*0.95 || fps > prof.TargetFPS*1.05 {
		t.Errorf("instant-execution fps = %.1f, want ≈%.0f", fps, prof.TargetFPS)
	}
	if g.DroppedFrames() != 0 {
		t.Errorf("dropped %d frames with instant execution", g.DroppedFrames())
	}
}

// TestGameShedsWhenStarved: with no execution at all, the engine drops
// frames rather than queueing unboundedly.
func TestGameShedsWhenStarved(t *testing.T) {
	g, err := New(Badland())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		g.Tick(now, time.Millisecond, rng)
		now += time.Millisecond
	}
	if g.CompletedFrames() != 0 {
		t.Errorf("starved game completed %d frames", g.CompletedFrames())
	}
	if g.DroppedFrames() == 0 {
		t.Error("starved game dropped nothing")
	}
}

func TestGameDeterminism(t *testing.T) {
	run := func() (int, float64) {
		g, err := New(SubwaySurf())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		now := time.Duration(0)
		var executed float64
		for i := 0; i < 3000; i++ {
			g.Tick(now, time.Millisecond, rng)
			for _, th := range g.Threads() {
				executed += th.Execute(th.Pending()/2, 0)
			}
			now += time.Millisecond
		}
		return g.CompletedFrames(), executed
	}
	f1, e1 := run()
	f2, e2 := run()
	if f1 != f2 || e1 != e2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", f1, e1, f2, e2)
	}
}

// TestBurstRaisesDemand: a bursting profile deposits more cycles than the
// same profile with bursts disabled.
func TestBurstRaisesDemand(t *testing.T) {
	deposit := func(burst bool) float64 {
		prof := SubwaySurf()
		prof.NoiseStd = 0
		prof.SwingAmp = 0
		if !burst {
			prof.BurstMult = 0
		}
		g, err := New(prof)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		now := time.Duration(0)
		var total float64
		for i := 0; i < 30_000; i++ {
			g.Tick(now, time.Millisecond, rng)
			for _, th := range g.Threads() {
				total += th.Execute(th.Pending(), 0)
			}
			now += time.Millisecond
		}
		return total
	}
	withBurst, without := deposit(true), deposit(false)
	if withBurst <= without*1.02 {
		t.Errorf("bursting demand %.3g not above baseline %.3g", withBurst, without)
	}
}

func TestFPSSeriesSampled(t *testing.T) {
	g, err := New(RealRacing3())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	now := time.Duration(0)
	for i := 0; i < 5000; i++ {
		g.Tick(now, time.Millisecond, rng)
		for _, th := range g.Threads() {
			th.Execute(th.Pending(), 0)
		}
		now += time.Millisecond
	}
	series := g.FPSSeries()
	if series.Len() < 4 {
		t.Errorf("fps series has %d samples after 5 s, want ≈5", series.Len())
	}
}
