package render

import (
	"math"
	"testing"
	"time"

	"mobicore/internal/sched"
)

func newPipe(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	p, err := New("test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := Config{TargetFPS: 30, MaxQueue: 3, Workers: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{TargetFPS: 0, MaxQueue: 3},
		{TargetFPS: 30, MaxQueue: 0},
		{TargetFPS: 30, MaxQueue: 3, Workers: -1},
		// A TargetFPS that is not finite, or whose frame interval
		// truncates to 0 or overflows a time.Duration, would spin Tick's
		// pacing loop forever. No pipeline is ticked here, so a
		// regression fails instead of hanging.
		{TargetFPS: math.NaN(), MaxQueue: 3},
		{TargetFPS: math.Inf(1), MaxQueue: 3},
		{TargetFPS: math.Inf(-1), MaxQueue: 3},
		{TargetFPS: 2e9, MaxQueue: 3},
		{TargetFPS: math.MaxFloat64, MaxQueue: 3},
		{TargetFPS: 1e-11, MaxQueue: 3},
		{TargetFPS: math.SmallestNonzeroFloat64, MaxQueue: 3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New("test", cfg); err == nil {
			t.Errorf("bad config %d: New accepted", i)
		}
	}
	// The extremes that still pace: one frame per nanosecond, and one
	// frame every ~32 years.
	for _, fps := range []float64{1e9, 1e-9} {
		if err := (Config{TargetFPS: fps, MaxQueue: 3}).Validate(); err != nil {
			t.Errorf("TargetFPS %v rejected: %v", fps, err)
		}
	}
}

func TestThreadNaming(t *testing.T) {
	p := newPipe(t, Config{TargetFPS: 30, MaxQueue: 3, Workers: 2})
	threads := p.Threads()
	if len(threads) != 3 {
		t.Fatalf("thread count = %d, want 3 (main + 2 workers)", len(threads))
	}
	if threads[0].Name() != "test-main" {
		t.Errorf("main thread name = %q", threads[0].Name())
	}
}

// execute stands in for the scheduler: it runs up to cycles of the
// thread's pending work on core 0.
func execute(th *sched.Thread, cycles float64) {
	th.Execute(cycles, 0)
}

func TestFramePacingAndCompletion(t *testing.T) {
	p := newPipe(t, Config{TargetFPS: 20, MaxQueue: 3, Workers: 1})
	const frameCycles = 1000.0
	// Run one second of ticks; execute everything promptly by consuming
	// through a fake scheduler: pull work off threads as if run.
	now := time.Duration(0)
	for i := 0; i < 1000; i++ {
		p.Tick(now, time.Millisecond, frameCycles, 0.5)
		for _, th := range p.Threads() {
			execute(th, th.Pending())
		}
		now += time.Millisecond
	}
	// Final retire to credit the last frames.
	p.Tick(now, time.Millisecond, frameCycles, 0.5)
	want := 20 // one second at 20 FPS
	if got := p.CompletedFrames(); got < want-2 || got > want+2 {
		t.Errorf("completed = %d, want ≈%d", got, want)
	}
	if p.DroppedFrames() != 0 {
		t.Errorf("dropped = %d with instant execution", p.DroppedFrames())
	}
	if fps := p.AvgFPS(now); math.Abs(fps-20) > 1 {
		t.Errorf("avg fps = %.1f, want ≈20", fps)
	}
}

func TestFrameDropUnderStarvation(t *testing.T) {
	p := newPipe(t, Config{TargetFPS: 30, MaxQueue: 2, Workers: 0})
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		// Never execute anything: the queue fills, frames drop.
		p.Tick(now, time.Millisecond, 1e9, 0)
		now += time.Millisecond
	}
	if p.CompletedFrames() != 0 {
		t.Errorf("completed = %d with no execution", p.CompletedFrames())
	}
	if p.DroppedFrames() == 0 {
		t.Error("starved pipeline dropped nothing")
	}
	// Dropped frames are never emitted, so in-flight is emitted −
	// completed, and the full queue holds exactly MaxQueue.
	if inFlight := p.EmittedFrames() - p.CompletedFrames(); inFlight != 2 {
		t.Errorf("in-flight = %d, want MaxQueue (2)", inFlight)
	}
}

// TestFullQueueDropsEveryDueFrame: with the queue full, every frame due in
// a tick is counted dropped, one per interval, and the pacing remainder
// carries over — here at a 3 ns interval, 333 333 frames per 1 ms tick
// with 1 ns left over.
func TestFullQueueDropsEveryDueFrame(t *testing.T) {
	const perTick = 333_333
	p := newPipe(t, Config{TargetFPS: 3e8, MaxQueue: 2})
	p.Tick(0, time.Millisecond, 1e9, 0)
	if p.EmittedFrames() != 2 || p.DroppedFrames() != perTick-2 || p.sinceEmit != 1 {
		t.Fatalf("after one tick: emitted %d dropped %d remainder %v, want 2, %d, 1ns",
			p.EmittedFrames(), p.DroppedFrames(), p.sinceEmit, perTick-2)
	}
	p.Tick(time.Millisecond, time.Millisecond, 1e9, 0)
	if p.DroppedFrames() != 2*perTick-2 || p.sinceEmit != 2 {
		t.Errorf("after two ticks: dropped %d remainder %v, want %d, 2ns", p.DroppedFrames(), p.sinceEmit, 2*perTick-2)
	}
}

func TestZeroCostFramesCompleteInstantly(t *testing.T) {
	p := newPipe(t, Config{TargetFPS: 10, MaxQueue: 3, Workers: 0})
	now := time.Duration(0)
	for i := 0; i < 1000; i++ {
		p.Tick(now, time.Millisecond, 0, 0)
		now += time.Millisecond
	}
	if got, want := p.CompletedFrames(), 10; got < want-1 || got > want+1 {
		t.Errorf("zero-cost completed = %d, want ≈%d", got, want)
	}
}

func TestSerialBottleneckGatesFPS(t *testing.T) {
	// parallelFrac 0 puts every frame entirely on the main thread, so
	// the main thread's execution rate gates FPS no matter how many
	// workers exist.
	p := newPipe(t, Config{TargetFPS: 50, MaxQueue: 3, Workers: 3})
	now := time.Duration(0)
	const perTick = 500.0
	for i := 0; i < 2000; i++ {
		p.Tick(now, time.Millisecond, 40_000, 0) // parallelFrac 0: all serial
		execute(p.Threads()[0], perTick)
		now += time.Millisecond
	}
	// Main executes 5e5 cycles/s; frames cost 4e4: ~12.5 fps.
	fps := p.AvgFPS(now)
	if math.Abs(fps-12.5) > 1.5 {
		t.Errorf("serial-bound fps = %.1f, want ≈12.5", fps)
	}
	// Workers must have received nothing.
	for _, th := range p.Threads()[1:] {
		if th.Pending() != 0 || th.Executed() != 0 {
			t.Errorf("worker %s received serial work", th.Name())
		}
	}
}

func TestLatencyTracked(t *testing.T) {
	p := newPipe(t, Config{TargetFPS: 10, MaxQueue: 3, Workers: 0})
	now := time.Duration(0)
	for i := 0; i < 1000; i++ {
		p.Tick(now, time.Millisecond, 1000, 0)
		execute(p.Threads()[0], 1000)
		now += time.Millisecond
	}
	sum := p.LatencySummary()
	if sum.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if sum.Max() > 0.01 {
		t.Errorf("prompt execution latency max = %v s, want ≈1 tick", sum.Max())
	}
}
