// bench_test.go regenerates every table and figure of the thesis through
// the testing.B harness — `go test -bench=. -benchmem` prints each
// experiment's headline numbers as custom metrics — and benchmarks the
// ablations called out in DESIGN.md §6.
//
// Benchmarks report via b.ReportMetric, so a bench run doubles as a
// reproduction run: mW figures, savings percentages, FPS ratios, and the
// raw simulation throughput (simulated-vs-wall speedup).
package mobicore

import (
	"context"
	"testing"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/cpufreq"
	"mobicore/internal/experiment"
	"mobicore/internal/hotplug"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/scenario"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// benchScale keeps bench iterations affordable while exercising every
// control loop; the recorded EXPERIMENTS.md numbers come from scale-1 runs
// of cmd/mobibench.
const benchScale = 0.1

func benchOpts() experiment.Options {
	return experiment.Options{Scale: benchScale, Seed: 42}
}

// runExperiment is the shared bench body: run the experiment b.N times and
// attach its key metric.
func runExperiment(b *testing.B, id string, metric func(experiment.Result) (string, float64)) {
	b.Helper()
	var last experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if metric != nil && last != nil {
		name, value := metric(last)
		b.ReportMetric(value, name)
	}
}

// --- one bench per paper item ----------------------------------------------

func BenchmarkTable1Specs(b *testing.B) {
	runExperiment(b, "table1", nil)
}

func BenchmarkTable2Bandwidth(b *testing.B) {
	runExperiment(b, "table2", func(r experiment.Result) (string, float64) {
		steps := r.(*experiment.Table2Result).Steps
		min := 1.0
		for _, s := range steps {
			if s.Quota < min {
				min = s.Quota
			}
		}
		return "min-quota", min
	})
}

func BenchmarkStaticPowerAnchor(b *testing.B) {
	runExperiment(b, "static", func(r experiment.Result) (string, float64) {
		return "fmax-leak-mW", r.(*experiment.StaticAnchorResult).FmaxLeakW * 1000
	})
}

func BenchmarkFig1PhoneEvolution(b *testing.B) {
	runExperiment(b, "fig1", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.Fig1Result).Rows
		for _, row := range rows {
			if row.Name == "Nexus 5" {
				return "nexus5-mW", row.AvgPowerW * 1000
			}
		}
		return "nexus5-mW", 0
	})
}

func BenchmarkFig2Thermal(b *testing.B) {
	runExperiment(b, "fig2", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.Fig2Result).Rows
		for _, row := range rows {
			if row.Name == "Nexus 5" {
				return "nexus5-predC", row.PredictedC
			}
		}
		return "nexus5-predC", 0
	})
}

func BenchmarkFig3UtilSweep(b *testing.B) {
	runExperiment(b, "fig3", func(r experiment.Result) (string, float64) {
		cells := r.(*experiment.Fig3Result).Cells
		return "cells", float64(len(cells))
	})
}

func BenchmarkFig4CoreSweep(b *testing.B) {
	runExperiment(b, "fig4", func(r experiment.Result) (string, float64) {
		cells := r.(*experiment.Fig4Result).Cells
		throttled := 0
		for _, c := range cells {
			if c.Throttled {
				throttled++
			}
		}
		return "throttled-cells", float64(throttled)
	})
}

func BenchmarkFig5OperatingPoints(b *testing.B) {
	runExperiment(b, "fig5", func(r experiment.Result) (string, float64) {
		return "feasible-points", float64(len(r.(*experiment.Fig5Result).Points))
	})
}

func BenchmarkFig6PerfPower(b *testing.B) {
	runExperiment(b, "fig6", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.Fig6Result).Rows
		return "fmax-score", rows[len(rows)-1].Score
	})
}

func BenchmarkFig7Ratio(b *testing.B) {
	runExperiment(b, "fig7", func(r experiment.Result) (string, float64) {
		return "peak4c-MHz", float64(r.(*experiment.Fig7Result).PeakFreq4Core()) / 1e6
	})
}

func BenchmarkFig9aStatic(b *testing.B) {
	runExperiment(b, "fig9a", func(r experiment.Result) (string, float64) {
		return "avg-saving-pct", r.(*experiment.Fig9aResult).AverageSavings() * 100
	})
}

func BenchmarkFig9bGeekbench(b *testing.B) {
	runExperiment(b, "fig9b", func(r experiment.Result) (string, float64) {
		return "power-saving-pct", r.(*experiment.Fig9bResult).PowerSavings() * 100
	})
}

func BenchmarkFig10GamePower(b *testing.B) {
	runExperiment(b, "fig10", func(r experiment.Result) (string, float64) {
		return "avg-saving-pct", r.(*experiment.Fig10Result).AverageSavings() * 100
	})
}

func BenchmarkFig11FPS(b *testing.B) {
	runExperiment(b, "fig11", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.Fig11Result).Rows
		sum := 0.0
		for _, g := range rows {
			sum += g.FPSRatio()
		}
		return "avg-fps-ratio", sum / float64(len(rows))
	})
}

func BenchmarkFig12Hardware(b *testing.B) {
	runExperiment(b, "fig12", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.Fig12Result).Rows
		sum := 0.0
		for _, g := range rows {
			sum += g.FreqReductionFrac()
		}
		return "avg-freq-red-pct", sum / float64(len(rows)) * 100
	})
}

func BenchmarkFig13Load(b *testing.B) {
	runExperiment(b, "fig13", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.Fig13Result).Rows
		sum := 0.0
		for _, g := range rows {
			sum += g.LoadReduction()
		}
		return "avg-load-red-pct", sum / float64(len(rows)) * 100
	})
}

// --- ablations (DESIGN.md §6) ----------------------------------------------

// ablationRun measures average power of a MobiCore variant on the standard
// mid-load benchmark (Nexus 5 platform).
func ablationRun(b *testing.B, build func(plat platform.Platform) (policy.Manager, error)) float64 {
	b.Helper()
	return ablationRunOn(b, platform.Nexus5(), build)
}

// ablationRunOn is ablationRun on an explicit platform.
func ablationRunOn(b *testing.B, plat platform.Platform, build func(plat platform.Platform) (policy.Manager, error)) float64 {
	b.Helper()
	mgr, err := build(plat)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.3,
		Threads:    4,
		RefFreq:    plat.Table.Max().Freq,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sim.SessionSpec{
		Platform: plat, Manager: mgr, Workloads: []workload.Workload{wl},
		Duration: 10 * time.Second, Seed: 42,
	}.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return rep.AvgPowerW
}

// BenchmarkAblationQuotaOff isolates Algorithm 4.1.2: MobiCore with the
// bandwidth controller disabled (quota pinned to 1 via MinQuota=LowUtil
// gate removal).
func BenchmarkAblationQuotaOff(b *testing.B) {
	var withQuota, withoutQuota float64
	for i := 0; i < b.N; i++ {
		withQuota = ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
			return core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
		})
		withoutQuota = ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
			tun := core.DefaultTunables()
			tun.LowUtil = 0.0001 // gate never opens: quota stays 1
			return core.NewClusteredForPlatform(plat, tun, core.DefaultClusterTunables(), true)
		})
	}
	b.ReportMetric(withQuota*1000, "quota-on-mW")
	b.ReportMetric(withoutQuota*1000, "quota-off-mW")
}

// BenchmarkAblationOffThreshold sweeps the §5.2 core-offline rule at
// 5/10/20% on the threshold (model-free) variant.
func BenchmarkAblationOffThreshold(b *testing.B) {
	var at5, at10, at20 float64
	for i := 0; i < b.N; i++ {
		run := func(th float64) float64 {
			return ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
				tun := core.DefaultTunables()
				tun.OffThreshold = th
				return core.NewClusteredForPlatform(plat, tun, core.DefaultClusterTunables(), false)
			})
		}
		at5, at10, at20 = run(0.05), run(0.10), run(0.20)
	}
	b.ReportMetric(at5*1000, "off5-mW")
	b.ReportMetric(at10*1000, "off10-mW")
	b.ReportMetric(at20*1000, "off20-mW")
}

// BenchmarkAblationLawVsOracle compares Eq. 9's closed form (threshold
// variant) against the §4.2 exhaustive optimizer.
func BenchmarkAblationLawVsOracle(b *testing.B) {
	var law, oracle float64
	for i := 0; i < b.N; i++ {
		law = ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
			return core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), false)
		})
		oracle = ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
			return core.NewClusteredOracleForPlatform(plat, 0.15)
		})
	}
	b.ReportMetric(law*1000, "eq9-mW")
	b.ReportMetric(oracle*1000, "oracle-mW")
}

// BenchmarkAblationRaceToIdle tests §4.1.2's claim that keeping cores
// online-idle (race-to-idle) cannot match off-lining on a per-core-rail
// platform — and its counterfactual: on a shared-rail platform with cheap
// idle states, the gap collapses. Compares MobiCore against
// ondemand+all-cores-online on both the calibrated Nexus 5 and the
// shared-rail variant.
func BenchmarkAblationRaceToIdle(b *testing.B) {
	// Same governor (ondemand) either offlining idle cores via the load
	// hotplug or keeping them online-idle — the §4.1.2 DCS isolation.
	run := func(plat platform.Platform, offline bool) float64 {
		return ablationRunOn(b, plat, func(plat platform.Platform) (policy.Manager, error) {
			gov, err := cpufreq.New("ondemand", plat.Table)
			if err != nil {
				return nil, err
			}
			if offline {
				plug, err := hotplug.NewLoad(hotplug.DefaultLoadTunables())
				if err != nil {
					return nil, err
				}
				return policy.Compose([]cpufreq.Governor{gov}, plug)
			}
			return policy.Compose([]cpufreq.Governor{gov}, hotplugAllOn{})
		})
	}
	var offPer, idlePer, offShared, idleShared float64
	for i := 0; i < b.N; i++ {
		offPer = run(platform.Nexus5(), true)
		idlePer = run(platform.Nexus5(), false)
		offShared = run(platform.Nexus5SharedRail(), true)
		idleShared = run(platform.Nexus5SharedRail(), false)
	}
	b.ReportMetric((idlePer/offPer-1)*100, "idle-penalty-pct")
	b.ReportMetric((idleShared/offShared-1)*100, "idle-penalty-shared-rail-pct")
	b.ReportMetric(offPer*1000, "offlining-mW")
	b.ReportMetric(idlePer*1000, "race-to-idle-mW")
}

// hotplugInput aliases the hotplug observation type for the stub below.
type hotplugInput = hotplug.Input

// hotplugAllOn keeps every core online — the race-to-idle configuration.
type hotplugAllOn struct{}

func (hotplugAllOn) Name() string { return "all-on" }
func (hotplugAllOn) TargetCores(in hotplugInput) (int, error) {
	return len(in.Online), nil
}
func (hotplugAllOn) Reset() {}

// BenchmarkAblationSamplePeriod sweeps the governor sampling period.
func BenchmarkAblationSamplePeriod(b *testing.B) {
	plat := platform.Nexus5()
	run := func(period time.Duration) float64 {
		mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
		if err != nil {
			b.Fatal(err)
		}
		wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
			TargetUtil: 0.3, Threads: 4, RefFreq: plat.Table.Max().Freq,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sim.SessionSpec{
			Platform: plat, Manager: mgr, Workloads: []workload.Workload{wl},
			Duration: 10 * time.Second, Seed: 42, SamplePeriod: period,
		}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return rep.AvgPowerW
	}
	var p20, p50, p100 float64
	for i := 0; i < b.N; i++ {
		p20, p50, p100 = run(20*time.Millisecond), run(50*time.Millisecond), run(100*time.Millisecond)
	}
	b.ReportMetric(p20*1000, "20ms-mW")
	b.ReportMetric(p50*1000, "50ms-mW")
	b.ReportMetric(p100*1000, "100ms-mW")
}

// BenchmarkExtensionSchedutil compares MobiCore against the post-thesis
// mainline governor (schedutil) — the modern baseline the thesis would be
// evaluated against today.
func BenchmarkExtensionSchedutil(b *testing.B) {
	var mobi, sutil float64
	for i := 0; i < b.N; i++ {
		mobi = ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
			return core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
		})
		sutil = ablationRun(b, func(plat platform.Platform) (policy.Manager, error) {
			gov, err := cpufreq.New("schedutil", plat.Table)
			if err != nil {
				return nil, err
			}
			plug, err := hotplug.NewLoad(hotplug.DefaultLoadTunables())
			if err != nil {
				return nil, err
			}
			return policy.Compose([]cpufreq.Governor{gov}, plug)
		})
	}
	b.ReportMetric(mobi*1000, "mobicore-mW")
	b.ReportMetric(sutil*1000, "schedutil-mW")
}

// BenchmarkBigLittleGaming regenerates the big.LITTLE extension experiment:
// MobiCore vs three stock governor stacks on the Snapdragon 810-class
// profile under Real Racing 3.
func BenchmarkBigLittleGaming(b *testing.B) {
	runExperiment(b, "biglittle", func(r experiment.Result) (string, float64) {
		rows := r.(*experiment.BigLittleResult).Rows
		return "mobicore-mW", rows[0].AvgW * 1000
	})
}

// perTick measures the steady-state cost of one simulation tick on a
// platform — the hot path the cluster refactor must not slow down on
// homogeneous profiles. ns/op is the evidence.
func perTick(b *testing.B, plat platform.Platform, mgr policy.Manager, threads int) {
	b.Helper()
	perTickPlaced(b, plat, mgr, threads, "")
}

// perTickPlaced is perTick with an explicit scheduler placement rule.
func perTickPlaced(b *testing.B, plat platform.Platform, mgr policy.Manager, threads int, placer string) {
	b.Helper()
	perTickFused(b, plat, mgr, threads, placer, false)
}

// perTickFused is the full-knob tick benchmark body: noFuse disables the
// engine's quiescent-tick fast path so the fused and unfused costs of the
// same session are directly comparable.
func perTickFused(b *testing.B, plat platform.Platform, mgr policy.Manager, threads int, placer string, noFuse bool) {
	b.Helper()
	ref := plat.ClusterSpecs()[0].Table.Max().Freq
	wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 0.5, Threads: threads, RefFreq: ref,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The spec's Duration covers the whole measured run, so the sampled
	// series are reserved up front and their growth does not pollute the
	// per-tick cost; the warm-up then steps past the boot transient so b.N
	// ticks measure steady state.
	s, err := sim.SessionSpec{
		Platform: plat, Manager: mgr, Workloads: []workload.Workload{wl},
		Duration: 100*time.Millisecond + time.Duration(b.N)*time.Millisecond,
		Seed:     1, Placer: placer, NoFuse: noFuse,
	}.New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(100 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	// allocs/op guards the pooled per-tick scratch (threads, scheduler
	// budget/online/freq/runnable, core snapshots, utilization);
	// TestStepAllocs in internal/sim enforces the budget and the
	// hotalloc analyzer (cmd/mobilint) guards the annotated functions.
	b.ReportAllocs()
	b.ResetTimer()
	fastStart := s.FastTicks()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.FastTicks()-fastStart)/float64(b.N), "fast-tick-ratio")
}

// BenchmarkPerTickNexus5 is the homogeneous per-tick baseline (4 cores,
// single cluster) under the full MobiCore manager.
func BenchmarkPerTickNexus5(b *testing.B) {
	plat := platform.Nexus5()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		b.Fatal(err)
	}
	perTick(b, plat, mgr, 4)
}

// BenchmarkPerTickNexus5NoFuse is BenchmarkPerTickNexus5 with the
// quiescent-tick fast path disabled: every tick pays full scheduling and
// power-model evaluation. The ratio against BenchmarkPerTickNexus5 is the
// fast path's speedup on a steady duty-cycled workload.
func BenchmarkPerTickNexus5NoFuse(b *testing.B) {
	plat := platform.Nexus5()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		b.Fatal(err)
	}
	perTickFused(b, plat, mgr, 4, "", true)
}

// BenchmarkPerTickNexus5Ondemand is the homogeneous per-tick baseline under
// the stock governor stack.
func BenchmarkPerTickNexus5Ondemand(b *testing.B) {
	plat := platform.Nexus5()
	mgr, err := policy.AndroidDefault(plat.Table)
	if err != nil {
		b.Fatal(err)
	}
	perTick(b, plat, mgr, 4)
}

// BenchmarkPerTickNexus6P measures the heterogeneous tick (8 cores, two
// clusters) under the clustered MobiCore.
func BenchmarkPerTickNexus6P(b *testing.B) {
	plat := platform.Nexus6P()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		b.Fatal(err)
	}
	perTick(b, plat, mgr, 4)
}

// BenchmarkScenarioTick measures the per-tick cost of the phase-switching
// day-in-the-life scenario under the full MobiCore manager: segment
// bookkeeping, lazy thread fan-out, and the steady-hint handshake with the
// quiescent-tick fast path. The fast-tick-ratio metric shows how much of a
// synthetic user's day fuses (screen-off idle should; bursts must not).
func BenchmarkScenarioTick(b *testing.B) {
	plat := platform.Nexus5()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		b.Fatal(err)
	}
	w, err := scenario.FromProfile(scenario.DayInTheLife())
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.SessionSpec{
		Platform: plat, Manager: mgr, Workloads: []workload.Workload{w},
		Duration: 100*time.Millisecond + time.Duration(b.N)*time.Millisecond, Seed: 1,
	}.New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(100 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	fastStart := s.FastTicks()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.FastTicks()-fastStart)/float64(b.N), "fast-tick-ratio")
}

// BenchmarkPlaceEAS measures the per-tick cost of the EAS placement hot
// path: the three-cluster sd855 profile under per-domain governors with
// the energy-aware placer installed. Compare against
// BenchmarkPlaceGreedySD855 for the placement rule's own overhead.
func BenchmarkPlaceEAS(b *testing.B) {
	plat := platform.SD855()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		b.Fatal(err)
	}
	perTickPlaced(b, plat, mgr, 6, "eas")
}

// BenchmarkPlaceGreedySD855 is the greedy-placer baseline for
// BenchmarkPlaceEAS on the same platform, manager, and workload.
func BenchmarkPlaceGreedySD855(b *testing.B) {
	plat := platform.SD855()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
	if err != nil {
		b.Fatal(err)
	}
	perTickPlaced(b, plat, mgr, 6, "greedy")
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated time
// per wall second for a 4-core device under MobiCore and a game.
func BenchmarkSimulatorThroughput(b *testing.B) {
	plat := platform.Nexus5()
	for i := 0; i < b.N; i++ {
		mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), true)
		if err != nil {
			b.Fatal(err)
		}
		wl, err := workload.NewBusyLoop(workload.BusyLoopConfig{
			TargetUtil: 0.5, Threads: 4, RefFreq: plat.Table.Max().Freq,
		})
		if err != nil {
			b.Fatal(err)
		}
		spec := sim.SessionSpec{Platform: plat, Manager: mgr, Workloads: []workload.Workload{wl}, Duration: time.Second, Seed: 1}
		if _, err := spec.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-sec/wall-sec")
}
