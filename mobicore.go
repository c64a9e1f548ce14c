// Package mobicore is a library reproduction of "MobiCore: An Adaptive
// Hybrid Approach for Power-Efficient CPU Management on Android Devices"
// (Broyde, University of Pittsburgh, 2017).
//
// It provides a deterministic smartphone-SoC simulation — multi-core CPU
// with per-core DVFS and hotplug, a calibrated CMOS power model, an RC
// thermal model with throttling, a load-balancing scheduler with CFS-style
// bandwidth control, and the stock Linux cpufreq governors — plus the
// paper's contribution: the MobiCore unified CPU manager, which decides
// frequency, online core count, and CPU bandwidth quota in one step.
//
// Beyond the thesis' homogeneous handsets, the simulator models
// heterogeneous (big.LITTLE) SoCs: a platform may declare multiple
// clusters, each its own frequency domain with a private OPP table and
// power calibration. The "nexus6p" profile is a Snapdragon 810-class
// 4×A53 + 4×A57 device; on such platforms MobiCore runs per cluster with
// an energy-aware gate that parks the big cores until the LITTLE cluster
// runs out of headroom, and stock governors run one instance per cluster,
// as Linux does. See README.md for the cluster model.
//
// Quick start:
//
//	dev, err := mobicore.NewDevice(mobicore.Config{
//		Platform: "nexus5",
//		Policy:   mobicore.PolicyMobiCore,
//	}, mobicore.BusyLoop(0.3, 4))
//	if err != nil { ... }
//	report, err := dev.Run(10 * time.Second)
//	fmt.Printf("%.1f mW\n", report.AvgPowerW*1000)
//
// Every table and figure of the thesis' evaluation can be regenerated with
// RunExperiment; see ExperimentIDs for the list.
package mobicore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"mobicore/internal/cpufreq"
	"mobicore/internal/experiment"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/sim"
	"mobicore/internal/soc"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// Policy names accepted by Config.Policy.
const (
	// PolicyMobiCore is the paper's contribution: the full energy-model
	// guided hybrid manager (DVFS + DCS + bandwidth in one decision).
	PolicyMobiCore = stack.MobiCore
	// PolicyMobiCoreThreshold is MobiCore with the §5.2 threshold rule
	// for core re-evaluation instead of the energy-model search.
	PolicyMobiCoreThreshold = stack.MobiCoreThreshold
	// PolicyAndroidDefault is the baseline the thesis evaluates against:
	// the ondemand governor plus the default load hotplug (mpdecision
	// disabled).
	PolicyAndroidDefault = stack.AndroidDefault
	// PolicyOracle is the §4.2 exhaustive energy-model optimizer,
	// re-evaluated every sampling period.
	PolicyOracle = stack.Oracle
)

// Config assembles a simulated device.
type Config struct {
	// Platform names a device profile: "nexus5" (default), "nexus-s",
	// "mb810", "galaxy-s2", "nexus4", "lg-g3", "nexus6p", or "sd855".
	// See Platforms.
	Platform string
	// Policy names the CPU manager: one of the Policy* constants or
	// "<governor>+<hotplug>" where governor is any stock cpufreq
	// governor (ondemand, interactive, conservative, powersave,
	// performance, userspace) and hotplug is "load", "mpdecision", or
	// "fixed-N". Defaults to PolicyAndroidDefault.
	Policy string
	// SamplePeriod is the governor sampling period (default 50 ms).
	SamplePeriod time.Duration
	// Tick is the simulation integration step (default 1 ms).
	Tick time.Duration
	// Seed drives all workload randomness; equal seeds reproduce runs
	// bit for bit.
	Seed int64
	// Sched selects the scheduler's placement rule: SchedGreedy
	// (default) or SchedEAS for energy-aware placement driven by the
	// platform's energy model. On homogeneous platforms both produce
	// identical placements.
	Sched string
	// DisableThermalThrottle removes the thermal frequency cap (the
	// configuration of the paper's short "highest computing state"
	// measurements).
	DisableThermalThrottle bool
}

// Scheduler placement rules accepted by Config.Sched.
const (
	// SchedGreedy is the original LITTLE-first most-budget greedy placer.
	SchedGreedy = sim.PlacerGreedy
	// SchedEAS is find_energy_efficient_cpu-style energy-aware placement:
	// each thread goes to the cluster predicted to execute its cycles at
	// the least energy, at the OPP the governor would pick.
	SchedEAS = sim.PlacerEAS
)

// Scheds lists the accepted placement-rule names.
func Scheds() []string { return []string{SchedGreedy, SchedEAS} }

// Device is a simulated handset running workloads under a CPU policy.
type Device struct {
	sim  *sim.Sim
	plat platform.Platform
}

// Workload is the demand-side interface; build instances with BusyLoop,
// NewGame, GeekBenchRun, Scripted, or Sinusoid.
type Workload = workload.Workload

// Report summarizes a completed run; see the fields of sim.Report.
type Report = sim.Report

// NewDevice builds a device from cfg and installs the workloads.
func NewDevice(cfg Config, workloads ...Workload) (*Device, error) {
	if len(workloads) == 0 {
		return nil, errors.New("mobicore: NewDevice needs at least one workload")
	}
	plat, err := lookupPlatform(cfg.Platform)
	if err != nil {
		return nil, err
	}
	if cfg.DisableThermalThrottle {
		plat = plat.WithoutThrottle()
	}
	mgr, err := buildPolicy(cfg.Policy, plat)
	if err != nil {
		return nil, err
	}
	s, err := sim.SessionSpec{
		Platform:     plat,
		Manager:      mgr,
		Workloads:    workloads,
		Tick:         cfg.Tick,
		SamplePeriod: cfg.SamplePeriod,
		Seed:         cfg.Seed,
		Placer:       cfg.Sched,
	}.New()
	if err != nil {
		return nil, fmt.Errorf("mobicore: %w", err)
	}
	return &Device{sim: s, plat: plat}, nil
}

// Run advances the simulation by d and returns the cumulative report.
func (d *Device) Run(dur time.Duration) (*Report, error) { return d.sim.Run(dur) }

// RunCtx is Run with cooperative cancellation: when ctx is done the
// simulation stops between ticks and returns the report accumulated so
// far alongside ctx's error, so a SIGINT still yields partial results.
func (d *Device) RunCtx(ctx context.Context, dur time.Duration) (*Report, error) {
	return d.sim.RunCtx(ctx, dur)
}

// RunUntilDone advances until every workload finishes or maxDur elapses.
func (d *Device) RunUntilDone(maxDur time.Duration) (*Report, bool, error) {
	return d.sim.RunUntilDone(maxDur)
}

// RunUntilDoneCtx is RunUntilDone with cooperative cancellation; like
// RunCtx it returns the partial report alongside ctx's error.
func (d *Device) RunUntilDoneCtx(ctx context.Context, maxDur time.Duration) (*Report, bool, error) {
	return d.sim.RunUntilDoneCtx(ctx, maxDur)
}

// Now returns the current simulated time.
func (d *Device) Now() time.Duration { return d.sim.Now() }

// WritePowerTraceCSV exports the sampled power-rail trace.
func (d *Device) WritePowerTraceCSV(w io.Writer) error { return d.sim.Monitor().WriteCSV(w) }

// WritePowerTraceJSON exports the trace and summary as JSON.
func (d *Device) WritePowerTraceJSON(w io.Writer) error { return d.sim.Monitor().WriteJSON(w) }

// PlatformName returns the device profile in use.
func (d *Device) PlatformName() string { return d.plat.Name }

// platformNames maps config names to profile constructors. The mapping is
// owned by the platform package (platform.Profiles) so the CLI aliases and
// platform.ByName display names cannot drift apart.
func platformNames() map[string]func() platform.Platform {
	return platform.Profiles()
}

// Platforms lists the built-in device profiles by canonical alias.
func Platforms() []string {
	m := platformNames()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookupPlatform accepts both spellings of a profile: the CLI alias
// ("nexus5") and the display name ("Nexus 5").
func lookupPlatform(name string) (platform.Platform, error) {
	if name == "" {
		name = "nexus5"
	}
	p, err := platform.ByName(name)
	if err != nil {
		return platform.Platform{}, fmt.Errorf("mobicore: unknown platform %q (have %v)", name, Platforms())
	}
	return p, nil
}

// Policies lists the accepted policy names (the composable
// "<governor>+<hotplug>" forms are additional).
func Policies() []string { return stack.Names() }

// Hotplugs lists the hotplug policy names composable on the right of
// "<governor>+<hotplug>": load, mpdecision, offline, fixed-N. Governors on
// the left include the stock set plus schedutil and the pin-min/mid/max
// frequency-pinning governors.
func Hotplugs() []string { return stack.Hotplugs() }

// buildPolicy resolves a policy name against a platform; the shared
// resolution lives in internal/stack so the facade, the fleet driver, and
// the CLIs accept exactly the same names.
func buildPolicy(name string, plat platform.Platform) (policy.Manager, error) {
	mgr, err := stack.Build(name, plat)
	if err != nil {
		return nil, fmt.Errorf("mobicore: %w", err)
	}
	return mgr, nil
}

// Governors lists the available cpufreq governors.
func Governors() []string { return cpufreq.Names() }

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return experiment.IDs() }

// ExperimentResult is a regenerated table or figure.
type ExperimentResult = experiment.Result

// ExperimentOptions scale experiment sessions; Scale 1.0 matches the
// paper's timings.
type ExperimentOptions = experiment.Options

// RunExperiment regenerates one paper item by id ("table1", "fig1" …
// "fig13", "static").
func RunExperiment(id string, opt ExperimentOptions) (ExperimentResult, error) {
	return experiment.Run(id, opt)
}

// Hz re-exports the frequency unit for API users.
type Hz = soc.Hz

// Frequency units.
const (
	KHz = soc.KHz
	MHz = soc.MHz
	GHz = soc.GHz
)
