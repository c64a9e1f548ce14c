package mobicore

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestBusyLoopPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BusyLoop(-1, 0) should panic; use NewBusyLoop for errors")
		}
	}()
	BusyLoop(-1, 0)
}

func TestNewBusyLoopErrors(t *testing.T) {
	if _, err := NewBusyLoop(1.5, 4); err == nil {
		t.Error("util > 1 accepted")
	}
	if _, err := NewBusyLoop(0.5, 0); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestNewSinusoidThroughFacade(t *testing.T) {
	wl, err := NewSinusoid("wave", 2, 1e9, 0.5, time.Second, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(Config{Policy: PolicyMobiCore, Seed: 5}, wl)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dev.Run(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecutedCycles == 0 {
		t.Error("sinusoid executed nothing")
	}
}

func TestNewCustomGameValidation(t *testing.T) {
	if _, err := NewCustomGame(GameProfile{}); err == nil {
		t.Error("zero-value profile accepted")
	}
	prof := GameProfile{
		Name: "Test Title", TargetFPS: 30, FrameCycles: 1e8,
		ParallelFrac: 0.5, Workers: 1, MaxQueue: 3,
	}
	g, err := NewCustomGame(prof)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "Test Title" {
		t.Errorf("name = %q", g.Name())
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	steps := []ScriptedStep{
		{Duration: 500 * time.Millisecond, CyclesPerSec: 2e9},
		{Duration: time.Second, CyclesPerSec: 5e8},
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, steps); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(steps) {
		t.Fatalf("round trip = %d steps, want %d", len(parsed), len(steps))
	}
	wl, err := NewScripted("replay", 2, parsed)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(Config{Seed: 1}, wl)
	if err != nil {
		t.Fatal(err)
	}
	rep, done, err := dev.RunUntilDone(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("replayed trace never finished")
	}
	// 2e9×0.5 + 5e8×1 = 1.5e9 cycles deposited and served.
	if rep.ExecutedCycles < 1.4e9 || rep.ExecutedCycles > 1.6e9 {
		t.Errorf("executed %.3g cycles, want ≈1.5e9", rep.ExecutedCycles)
	}
	if _, err := ParseTraceCSV(strings.NewReader("garbage")); err == nil {
		t.Error("garbage trace accepted")
	}
}

func TestSchedutilThroughFacade(t *testing.T) {
	dev, err := NewDevice(Config{Policy: "schedutil+load", Seed: 2}, BusyLoop(0.4, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dev.Run(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Policy, "schedutil") {
		t.Errorf("policy = %q", rep.Policy)
	}
}

// FuzzGameProfile passes arbitrary profile fields through NewCustomGame,
// the custom-profile path of examples/custom-platform. Workers and
// MaxQueue are folded into [-8, 8] so no input builds a huge thread slice
// (negative and zero values still reach validation). Every input must
// either be rejected by NewCustomGame or run a 200 ms Nexus 5 session to a
// finite EnergyJ and AvgPowerW.
func FuzzGameProfile(f *testing.F) {
	for _, g := range GameNames() {
		p, err := NewGame(g)
		if err != nil {
			f.Fatal(err)
		}
		pr := p.Profile()
		f.Add(pr.Name, pr.TargetFPS, pr.FrameCycles, pr.ParallelFrac, int8(pr.Workers), pr.SwingAmp, int64(pr.SwingPeriod),
			int64(pr.BurstEvery), int64(pr.BurstLen), pr.BurstMult, pr.NoiseStd, int8(pr.MaxQueue))
	}
	f.Add("nan", math.NaN(), 1e7, 0.5, int8(2), 0.0, int64(0), int64(0), int64(0), 0.0, 0.0, int8(3))
	f.Add("fast", 2e9, 1e7, 0.5, int8(2), 0.0, int64(0), int64(0), int64(0), 0.0, 0.0, int8(3))
	f.Add("huge", 60.0, 1e308, 0.0, int8(1), 1.0, int64(time.Second), int64(time.Millisecond), int64(time.Second), 1e308, 0.5, int8(8))
	f.Fuzz(func(t *testing.T, name string, fps, frameCycles, parallelFrac float64, workers int8, swingAmp float64, swingPeriod,
		burstEvery, burstLen int64, burstMult, noiseStd float64, maxQueue int8) {
		g, err := NewCustomGame(GameProfile{
			Name:         name,
			TargetFPS:    fps,
			FrameCycles:  frameCycles,
			ParallelFrac: parallelFrac,
			Workers:      int(workers % 9),
			SwingAmp:     swingAmp,
			SwingPeriod:  time.Duration(swingPeriod),
			BurstEvery:   time.Duration(burstEvery),
			BurstLen:     time.Duration(burstLen),
			BurstMult:    burstMult,
			NoiseStd:     noiseStd,
			MaxQueue:     int(maxQueue % 9),
		})
		if err != nil {
			return
		}
		dev, err := NewDevice(Config{Platform: "nexus5", Seed: 1}, g)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dev.Run(200 * time.Millisecond)
		if err != nil {
			t.Fatalf("accepted profile %+v failed to run: %v", g.Profile(), err)
		}
		for _, v := range []float64{rep.EnergyJ, rep.AvgPowerW} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted profile %+v ran to EnergyJ %v, AvgPowerW %v", g.Profile(), rep.EnergyJ, rep.AvgPowerW)
			}
		}
	})
}
