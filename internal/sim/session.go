package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// SessionSpec describes one complete simulation session as a value: the
// platform, the policy under test, the demand, and every knob that selects
// a run. It is the one way to build a Sim, so every caller (the public
// Device, the experiment helpers, the fleet driver) shares one construction
// path.
//
// The zero values of the optional fields select the engine defaults (1 ms
// tick, 50 ms sampling, greedy placement, boot at the table maximum with
// every core online), so a spec carrying only Platform, Manager,
// Workloads, and Duration is a valid session.
type SessionSpec struct {
	// Platform is the device profile; required.
	Platform platform.Platform
	// Manager is the CPU management policy under test; required. Managers
	// are stateful — a spec must carry a fresh instance, never one that
	// already ran.
	Manager policy.Manager
	// Workloads generate demand; at least one is required. Like Manager,
	// instances are stateful and single-session.
	Workloads []workload.Workload

	// Duration is how long the session runs (simulated time); required
	// for Run. UntilDone sessions treat it as the deadline. It also sizes
	// the sampled series up front, so a session that runs for Duration
	// appends without a single growth reallocation; sessions built with
	// New and driven by hand may leave it 0 (nothing is reserved).
	Duration time.Duration
	// UntilDone stops the session as soon as every workload reports Done,
	// with Duration as the cap — the RunUntilDone shape benchmarks use.
	UntilDone bool

	// Seed drives all workload randomness; runs with equal seeds and
	// specs produce identical traces.
	Seed int64
	// PowerTrace, when non-nil, receives every integration tick's power
	// sample before the tick commits: the tick's start time, its length,
	// the total system watts, and each cluster's share (cores + uncore,
	// platform floor excluded), indexed like the platform's ClusterSpecs.
	// The cluster slice is scratch reused between ticks — callers that
	// retain samples must copy it. Integrating systemW·dt over a session
	// reproduces the report's EnergyJ exactly.
	PowerTrace func(now, dt time.Duration, systemW float64, clusterW []float64)
	// Placer selects the scheduler's placement rule: "" or PlacerGreedy
	// for the default greedy, PlacerEAS for energy-aware placement driven
	// by the platform's energy model. On homogeneous platforms the two
	// produce identical placements.
	Placer string
	// Tick is the integration step (default 1 ms).
	Tick time.Duration
	// SamplePeriod is how often the manager runs (default 50 ms).
	SamplePeriod time.Duration

	// InitialFreq is the boot frequency on homogeneous platforms (default:
	// table max, as the kernel boots before a governor takes over). Must
	// be an OPP; heterogeneous platforms boot each cluster at its own
	// maximum and require 0.
	InitialFreq soc.Hz
	// InitialCores is the boot online count (default: all).
	InitialCores int

	// NoFuse disables the quiescent-tick fast path, forcing every tick
	// through the full scheduling and integration pipeline. Output is
	// byte-identical either way — the fast path replays a retained window
	// only when it can prove the slow path would reproduce it bit for bit
	// — so the knob exists for equivalence tests and debugging, not
	// correctness. Harnesses that drive Step directly and mutate the CPU
	// between ticks must set it (the engine cannot observe out-of-band
	// frequency or hotplug changes).
	NoFuse bool
}

// Placer names accepted by SessionSpec.Placer.
const (
	// PlacerGreedy is the original LITTLE-first most-budget greedy.
	PlacerGreedy = "greedy"
	// PlacerEAS is find_energy_efficient_cpu-style energy-aware placement
	// backed by the platform's energy model.
	PlacerEAS = "eas"
)

// fillDefaults validates the spec and resolves every zero-valued optional
// field to its engine default.
func (sp *SessionSpec) fillDefaults() error {
	if err := sp.Platform.Validate(); err != nil {
		return err
	}
	if sp.Manager == nil {
		return errors.New("sim: session needs a policy manager")
	}
	if len(sp.Workloads) == 0 {
		return errors.New("sim: session needs at least one workload")
	}
	if sp.Tick == 0 {
		sp.Tick = time.Millisecond
	}
	if sp.Tick <= 0 {
		return errors.New("sim: tick must be positive")
	}
	if sp.SamplePeriod == 0 {
		sp.SamplePeriod = 50 * time.Millisecond
	}
	if sp.SamplePeriod < sp.Tick {
		return errors.New("sim: sample period must be >= tick")
	}
	if sp.Platform.Heterogeneous() {
		// Each cluster boots at its own table maximum; a single initial
		// frequency cannot name an operating point in every domain.
		if sp.InitialFreq != 0 {
			return errors.New("sim: InitialFreq is per-cluster on heterogeneous platforms; leave it 0")
		}
	} else {
		if sp.InitialFreq == 0 {
			sp.InitialFreq = sp.Platform.Table.Max().Freq
		}
		if !sp.Platform.Table.Contains(sp.InitialFreq) {
			return fmt.Errorf("sim: initial frequency %v is not an operating point", sp.InitialFreq)
		}
	}
	if sp.InitialCores == 0 {
		sp.InitialCores = sp.Platform.NumCores
	}
	if sp.InitialCores < 1 || sp.InitialCores > sp.Platform.NumCores {
		return fmt.Errorf("sim: initial cores %d outside [1,%d]", sp.InitialCores, sp.Platform.NumCores)
	}
	switch sp.Placer {
	case "":
		sp.Placer = PlacerGreedy
	case PlacerGreedy, PlacerEAS:
	default:
		return fmt.Errorf("sim: unknown placer %q (want %q or %q)", sp.Placer, PlacerGreedy, PlacerEAS)
	}
	return nil
}

// New builds the session's simulation without running it, for callers that
// need mid-run access (FPS series, thermal zones, stepping by hand). It is
// NewIn on an arena of one.
func (sp SessionSpec) New() (*Sim, error) {
	return sp.NewIn(NewArena())
}

// NewIn is New drawing the simulation's buffers from the arena. See Arena
// for the one-live-Sim ownership contract.
func (sp SessionSpec) NewIn(a *Arena) (*Sim, error) {
	return newSim(sp, a)
}

// Run builds and runs the session to completion (or until ctx is done) and
// returns the report. Cancellation surfaces as a partial report alongside
// ctx's error, exactly like Sim.RunCtx.
func (sp SessionSpec) Run(ctx context.Context) (*Report, error) {
	rep, _, err := sp.RunIn(ctx, NewArena())
	return rep, err
}

// RunIn is Run executing the session in the arena, for callers that reuse
// one arena across sessions and need the finish flag: whether every
// workload reported Done within Duration. Duration-shaped sessions (the
// default) finish by definition when they run to the end; an UntilDone
// session reports what RunUntilDoneCtx observed. The returned report is a
// deep copy, safe to retain after the arena moves on to its next session.
func (sp SessionSpec) RunIn(ctx context.Context, a *Arena) (*Report, bool, error) {
	s, err := sp.NewIn(a)
	if err != nil {
		return nil, false, err
	}
	if sp.UntilDone {
		return s.RunUntilDoneCtx(ctx, sp.Duration)
	}
	rep, err := s.RunCtx(ctx, sp.Duration)
	return rep, err == nil, err
}
