// Package games models the five "modern representative games" of the
// thesis' evaluation (§6): Real Racing 3, Subway Surf, Badland, Angry
// Birds, and Asphalt 8. Each game is a frame-paced CPU workload with a
// distinct demand signature — mean frame cost, thread parallelism,
// oscillation, and burstiness — calibrated so the per-game contrasts the
// thesis reports emerge: Subway Surf spiky and parallel (largest MobiCore
// saving, 11.7%), Real Racing 3 steady and serial-bound (no headroom,
// ≈0% saving), the rest in between.
package games

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobicore/internal/metrics"
	"mobicore/internal/render"
	"mobicore/internal/sched"
)

// Profile is one game's demand signature.
type Profile struct {
	// Name is the title used in reports.
	Name string
	// TargetFPS is the engine's frame pacing.
	TargetFPS float64
	// FrameCycles is the mean CPU cost of one frame.
	FrameCycles float64
	// ParallelFrac is the Amdahl fraction of frame work spread over the
	// worker threads; the rest runs on the main thread.
	ParallelFrac float64
	// Workers is the worker thread count beyond the main thread.
	Workers int
	// SwingAmp and SwingPeriod describe the slow scene-driven oscillation
	// of frame cost: cycles ×= 1 + SwingAmp·sin(2πt/SwingPeriod).
	SwingAmp    float64
	SwingPeriod time.Duration
	// BurstEvery and BurstLen describe demand spikes (explosions, scene
	// loads): every BurstEvery on average, frame cost multiplies by
	// BurstMult for BurstLen. Poisson-spaced via the simulation rng.
	BurstEvery time.Duration
	BurstLen   time.Duration
	BurstMult  float64
	// NoiseStd is per-frame multiplicative noise (fraction).
	NoiseStd float64
	// MaxQueue caps frames in flight before the engine skips frames.
	MaxQueue int
}

// Validate rejects nonsensical profiles, non-finite float fields
// included (a NaN fails every comparison, so each range check is written
// to reject it).
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("games: profile needs a name")
	case !finite(p.FrameCycles) || p.FrameCycles <= 0:
		return errors.New("games: FrameCycles must be positive and finite")
	case !(p.ParallelFrac >= 0 && p.ParallelFrac <= 1):
		return errors.New("games: ParallelFrac must be in [0,1]")
	case !(p.SwingAmp >= 0 && p.SwingAmp <= 1):
		return errors.New("games: SwingAmp must be in [0,1]")
	case p.SwingAmp > 0 && p.SwingPeriod <= 0:
		return errors.New("games: SwingPeriod must be positive when SwingAmp > 0")
	case !finite(p.BurstMult) || p.BurstMult < 0:
		return errors.New("games: BurstMult must be non-negative and finite")
	case p.BurstMult > 0 && (p.BurstEvery <= 0 || p.BurstLen <= 0):
		return errors.New("games: burst timing must be positive when bursting")
	case !finite(p.NoiseStd) || p.NoiseStd < 0:
		return errors.New("games: NoiseStd must be non-negative and finite")
	}
	// TargetFPS, Workers and MaxQueue shape the frame pipeline; its own
	// validation is the one rule for them.
	if err := p.pipelineConfig().Validate(); err != nil {
		return fmt.Errorf("games: %w", err)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// pipelineConfig is the frame pipeline the profile paces.
func (p Profile) pipelineConfig() render.Config {
	return render.Config{TargetFPS: p.TargetFPS, MaxQueue: p.MaxQueue, Workers: p.Workers}
}

// Game is a live instance of a profile: a frame pipeline plus the demand
// dynamics. It implements the simulator's workload interface.
type Game struct {
	profile  Profile
	pipeline *render.Pipeline

	elapsed    time.Duration
	burstUntil time.Duration
	nextBurst  time.Duration
	burstInit  bool

	fpsSeries metrics.Series
	lastFPSAt time.Duration
	lastDone  int
}

// New instantiates a game.
func New(p Profile) (*Game, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pipe, err := render.New(p.Name, p.pipelineConfig())
	if err != nil {
		return nil, fmt.Errorf("games: building pipeline for %s: %w", p.Name, err)
	}
	return &Game{profile: p, pipeline: pipe}, nil
}

// Name implements workload.Workload.
func (g *Game) Name() string { return g.profile.Name }

// Profile returns the game's demand signature.
func (g *Game) Profile() Profile { return g.profile }

// Threads implements workload.Workload.
func (g *Game) Threads() []*sched.Thread { return g.pipeline.Threads() }

// Done implements workload.Workload: gaming sessions are time-boxed by the
// experiment, not self-terminating.
func (g *Game) Done() bool { return false }

// Tick implements workload.Workload.
func (g *Game) Tick(now, dt time.Duration, rng *rand.Rand) {
	g.elapsed += dt
	cycles := g.frameCost(rng)
	g.pipeline.Tick(now, dt, cycles, g.profile.ParallelFrac)

	// Sample a 1-second rolling FPS series for the evaluation plots.
	if g.elapsed-g.lastFPSAt >= time.Second {
		done := g.pipeline.CompletedFrames()
		g.fpsSeries.Append(now, float64(done-g.lastDone)/(g.elapsed-g.lastFPSAt).Seconds())
		g.lastDone = done
		g.lastFPSAt = g.elapsed
	}
}

// frameCost evaluates the demand dynamics for a frame emitted now.
func (g *Game) frameCost(rng *rand.Rand) float64 {
	p := g.profile
	cycles := p.FrameCycles

	if p.SwingAmp > 0 {
		phase := 2 * math.Pi * float64(g.elapsed) / float64(p.SwingPeriod)
		cycles *= 1 + p.SwingAmp*math.Sin(phase)
	}

	if p.BurstMult > 0 {
		if !g.burstInit {
			g.nextBurst = g.elapsed + exponential(rng, p.BurstEvery)
			g.burstInit = true
		}
		if g.elapsed >= g.nextBurst {
			g.burstUntil = g.elapsed + p.BurstLen
			g.nextBurst = g.elapsed + p.BurstLen + exponential(rng, p.BurstEvery)
		}
		if g.elapsed < g.burstUntil {
			cycles *= p.BurstMult
		}
	}

	if p.NoiseStd > 0 {
		cycles *= 1 + p.NoiseStd*rng.NormFloat64()
	}
	if cycles < 0 {
		cycles = 0
	}
	return cycles
}

// exponential draws an exponentially distributed interval with the given
// mean from the simulation rng.
func exponential(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// AvgFPS returns the session's average completed frames per second.
func (g *Game) AvgFPS() float64 { return g.pipeline.AvgFPS(g.elapsed) }

// FPSSeries returns the rolling one-second FPS samples.
func (g *Game) FPSSeries() metrics.Series { return g.fpsSeries }

// CompletedFrames returns the total frames rendered.
func (g *Game) CompletedFrames() int { return g.pipeline.CompletedFrames() }

// DroppedFrames returns frames skipped under backpressure.
func (g *Game) DroppedFrames() int { return g.pipeline.DroppedFrames() }

// EmittedFrames returns total frames the engine submitted.
func (g *Game) EmittedFrames() int { return g.pipeline.EmittedFrames() }

// LatencySummary returns frame emit-to-completion latency statistics.
func (g *Game) LatencySummary() metrics.Summary { return g.pipeline.LatencySummary() }

// DropRate returns the fraction of paced frames skipped under backpressure.
func (g *Game) DropRate() float64 { return g.pipeline.DropRate() }
