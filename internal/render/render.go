// Package render is the frame pipeline that turns executed CPU cycles into
// frames per second — the performance metric of the thesis' evaluation
// (§5.1: "The performance of MobiCore is measured in frames per second").
// The GPU is pinned at its maximum frequency and assumed not to bottleneck
// (§3.2), so frame completion is gated purely by CPU throughput: each frame
// carries a serial chunk (the game's main thread) and parallel chunks (its
// worker threads), and the frame completes when every chunk has executed.
package render

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mobicore/internal/metrics"
	"mobicore/internal/sched"
)

// Config shapes a pipeline.
type Config struct {
	// TargetFPS is the engine's frame pacing — how often it submits new
	// frames. Mobile titles of the era paced between 20 and 60.
	TargetFPS float64
	// MaxQueue caps frames in flight; when the CPU falls behind, the
	// engine skips frames rather than queueing unboundedly (frame drop).
	MaxQueue int
	// Workers is the number of worker threads in addition to the main
	// thread. Zero means a single-threaded game.
	Workers int
}

// Validate rejects nonsensical configurations, including a TargetFPS
// whose frame interval does not fit a time.Duration: an interval that
// truncates to 0 (above 1e9 FPS) or overflows would never let Tick's
// pacing loop exit.
func (c Config) Validate() error {
	if !(c.TargetFPS > 0) || math.IsInf(c.TargetFPS, 1) {
		return fmt.Errorf("render: TargetFPS %v must be positive and finite", c.TargetFPS)
	}
	if iv := float64(time.Second) / c.TargetFPS; iv < 1 || iv >= math.MaxInt64 {
		return fmt.Errorf("render: TargetFPS %v gives a frame interval outside [1ns, max duration]", c.TargetFPS)
	}
	if c.MaxQueue < 1 {
		return errors.New("render: MaxQueue must be >= 1")
	}
	if c.Workers < 0 {
		return errors.New("render: Workers must be non-negative")
	}
	return nil
}

// chunk is one thread's share of a frame.
type chunk struct {
	frame  *frame
	cycles float64
}

// frame is one in-flight frame.
type frame struct {
	emittedAt time.Duration
	remaining int // chunks not yet fully executed
}

// Pipeline drives frames through scheduler threads. Not safe for concurrent
// use; the owning workload serializes access.
type Pipeline struct {
	cfg      Config
	interval time.Duration
	threads  []*sched.Thread // index 0 is the main thread
	fifo     [][]chunk       // per-thread outstanding chunks, FIFO order
	lastExec []float64       // executed-cycles watermark per thread

	sinceEmit time.Duration
	inFlight  int
	emitted   int
	completed int
	dropped   int
	latency   metrics.Summary // seconds from emit to completion
}

// New builds a pipeline and its threads. namePrefix labels the threads for
// deterministic scheduling and diagnostics.
func New(namePrefix string, cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 1 + cfg.Workers
	threads := make([]*sched.Thread, n)
	threads[0] = sched.NewThread(namePrefix + "-main")
	for i := 1; i < n; i++ {
		threads[i] = sched.NewThread(fmt.Sprintf("%s-worker%d", namePrefix, i-1))
	}
	return &Pipeline{
		cfg:      cfg,
		interval: time.Duration(float64(time.Second) / cfg.TargetFPS),
		threads:  threads,
		fifo:     make([][]chunk, n),
		lastExec: make([]float64, n),
	}, nil
}

// Threads returns the pipeline's threads (main first).
func (p *Pipeline) Threads() []*sched.Thread { return p.threads }

// Tick advances the pipeline: it retires executed chunks, then paces new
// frames. frameCycles is the CPU cost of a frame emitted this tick and
// parallelFrac the fraction of that cost spread over the worker threads
// (Amdahl split); with no workers everything lands on the main thread.
func (p *Pipeline) Tick(now, dt time.Duration, frameCycles, parallelFrac float64) {
	p.retire(now)

	p.sinceEmit += dt
	for p.sinceEmit >= p.interval {
		if p.inFlight >= p.cfg.MaxQueue {
			// Nothing retires mid-tick, so every frame still due this
			// tick is skipped: count them at once rather than one loop
			// pass each (a 1 GHz pacing would otherwise spin a million
			// passes per 1 ms tick).
			n := p.sinceEmit / p.interval
			p.dropped += int(n)
			p.sinceEmit -= n * p.interval
			break
		}
		p.sinceEmit -= p.interval
		p.emit(now, frameCycles, parallelFrac)
	}
}

// emit splits one frame into chunks and deposits the work.
func (p *Pipeline) emit(now time.Duration, frameCycles, parallelFrac float64) {
	if frameCycles < 0 {
		frameCycles = 0
	}
	if parallelFrac < 0 {
		parallelFrac = 0
	}
	if parallelFrac > 1 {
		parallelFrac = 1
	}
	workers := len(p.threads) - 1
	if workers == 0 {
		parallelFrac = 0
	}

	f := &frame{emittedAt: now}
	serial := frameCycles * (1 - parallelFrac)
	if serial > 0 {
		p.fifo[0] = append(p.fifo[0], chunk{frame: f, cycles: serial})
		p.threads[0].AddWork(serial)
		f.remaining++
	}
	if workers > 0 {
		share := frameCycles * parallelFrac / float64(workers)
		if share > 0 {
			for i := 1; i < len(p.threads); i++ {
				p.fifo[i] = append(p.fifo[i], chunk{frame: f, cycles: share})
				p.threads[i].AddWork(share)
				f.remaining++
			}
		}
	}
	if f.remaining == 0 {
		// Degenerate zero-cost frame: completes instantly.
		p.completed++
		p.latency.Add(0)
		p.emitted++
		return
	}
	p.inFlight++
	p.emitted++
}

// retire drains executed cycles through each thread's chunk FIFO and
// completes frames whose chunks have all run.
func (p *Pipeline) retire(now time.Duration) {
	for i, th := range p.threads {
		delta := th.Executed() - p.lastExec[i]
		p.lastExec[i] = th.Executed()
		q := p.fifo[i]
		for delta > 0 && len(q) > 0 {
			c := &q[0]
			if delta < c.cycles {
				c.cycles -= delta
				delta = 0
				break
			}
			delta -= c.cycles
			c.frame.remaining--
			if c.frame.remaining == 0 {
				p.inFlight--
				p.completed++
				p.latency.Add((now - c.frame.emittedAt).Seconds())
			}
			q = q[1:]
		}
		p.fifo[i] = q
	}
}

// CompletedFrames returns frames fully rendered.
func (p *Pipeline) CompletedFrames() int { return p.completed }

// DroppedFrames returns frames skipped because the queue was full.
func (p *Pipeline) DroppedFrames() int { return p.dropped }

// EmittedFrames returns frames submitted to the pipeline.
func (p *Pipeline) EmittedFrames() int { return p.emitted }

// DropRate returns the fraction of paced frames the engine skipped because
// the CPU fell behind — the user-visible cost of sustained throttling in a
// long session. Zero when nothing was paced yet.
func (p *Pipeline) DropRate() float64 {
	paced := p.emitted + p.dropped
	if paced == 0 {
		return 0
	}
	return float64(p.dropped) / float64(paced)
}

// AvgFPS returns completed frames per second over the elapsed session.
func (p *Pipeline) AvgFPS(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(p.completed) / elapsed.Seconds()
}

// LatencySummary returns emit-to-completion latency statistics in seconds.
func (p *Pipeline) LatencySummary() metrics.Summary { return p.latency }
