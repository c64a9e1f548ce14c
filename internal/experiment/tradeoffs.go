package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/sim"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// Fig3Cell is one (frequency, utilization) measurement on one core.
type Fig3Cell struct {
	Freq      soc.Hz
	Util      float64
	AvgPowerW float64
}

// Fig3Result reproduces Figure 3: power over CPU utilization at five
// frequencies for one core.
type Fig3Result struct {
	Cells []Fig3Cell
}

// ID implements Result.
func (*Fig3Result) ID() string { return "fig3" }

// Title implements Result.
func (*Fig3Result) Title() string {
	return "Figure 3: Power consumption over CPU utilization at different frequencies, 1 core"
}

// WriteText implements Result.
func (r *Fig3Result) WriteText(w io.Writer) error {
	if len(r.Cells) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%-12s %6s %10s\n", "freq", "util%", "avg mW")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-12v %6.0f %10.1f\n", c.Freq, c.Util*100, c.AvgPowerW*1000)
	}
	return nil
}

// RunFig3 pins one core to each of the five benchmark frequencies and
// sweeps the kernel app's utilization target 10%→100% for one minute each
// (§3.3.1's methodology).
func RunFig3(opt Options) (Result, error) {
	plat := platform.Nexus5().WithoutThrottle()
	res := &Fig3Result{}
	for _, f := range fiveBenchFreqs(plat.Table) {
		for util := 0.1; util <= 1.001; util += 0.1 {
			mgr, err := policy.Pinned(plat.Table, f, 1)
			if err != nil {
				return nil, fmt.Errorf("fig3: %w", err)
			}
			wl, err := utilLoop(util, 1, f)
			if err != nil {
				return nil, fmt.Errorf("fig3: %w", err)
			}
			rep, err := opt.spec(plat, mgr, wl, opt.dur(60*time.Second)).Run(context.Background())
			if err != nil {
				return nil, fmt.Errorf("fig3 f=%v u=%.1f: %w", f, util, err)
			}
			res.Cells = append(res.Cells, Fig3Cell{Freq: f, Util: util, AvgPowerW: rep.AvgPowerW})
		}
	}
	return res, nil
}

// Fig4Cell is one (frequency, cores) measurement at 100% utilization.
type Fig4Cell struct {
	Freq      soc.Hz
	Cores     int
	AvgPowerW float64
	Throttled bool // whether the thermal driver capped during the run
}

// Fig4Result reproduces Figure 4: power over core count at five
// frequencies, 100% utilization.
type Fig4Result struct {
	Cells []Fig4Cell
}

// ID implements Result.
func (*Fig4Result) ID() string { return "fig4" }

// Title implements Result.
func (*Fig4Result) Title() string {
	return "Figure 4: Power consumption over CPU cores at different frequencies, 100% utilization"
}

// WriteText implements Result.
func (r *Fig4Result) WriteText(w io.Writer) error {
	if len(r.Cells) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%-12s %6s %10s %10s\n", "freq", "cores", "avg mW", "throttled")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-12v %6d %10.1f %10v\n", c.Freq, c.Cores, c.AvgPowerW*1000, c.Throttled)
	}
	return nil
}

// RunFig4 pins 1–4 cores at each benchmark frequency under continuous
// spinning. The thermal driver stays enabled: the sub-linear power growth
// from 2 to 4 cores at high frequency — the paper's "marginal power
// increase" — is the thermal cap clipping sustained multi-core turbo.
func RunFig4(opt Options) (Result, error) {
	plat := platform.Nexus5()
	res := &Fig4Result{}
	for _, f := range fiveBenchFreqs(plat.Table) {
		for cores := 1; cores <= plat.NumCores; cores++ {
			mgr, err := policy.Pinned(plat.Table, f, cores)
			if err != nil {
				return nil, fmt.Errorf("fig4: %w", err)
			}
			wl, err := stressLoop(cores, f)
			if err != nil {
				return nil, fmt.Errorf("fig4: %w", err)
			}
			rep, err := opt.spec(plat, mgr, wl, opt.dur(60*time.Second)).Run(context.Background())
			if err != nil {
				return nil, fmt.Errorf("fig4 f=%v n=%d: %w", f, cores, err)
			}
			res.Cells = append(res.Cells, Fig4Cell{
				Freq:      f,
				Cores:     cores,
				AvgPowerW: rep.AvgPowerW,
				Throttled: rep.ThermalCappedSec > 0,
			})
		}
	}
	return res, nil
}

// Fig5Point is one feasible operating point for a demanded global load.
type Fig5Point struct {
	GlobalLoad     float64
	Cores          int
	Freq           soc.Hz
	PredictedWatts float64
	MeasuredWatts  float64
	Optimal        bool // marked on the model's minimum for this load
}

// Fig5Result reproduces Figure 5(a–d): power over frequency when varying
// the operating point, one panel per global CPU load.
type Fig5Result struct {
	Points []Fig5Point
}

// ID implements Result.
func (*Fig5Result) ID() string { return "fig5" }

// Title implements Result.
func (*Fig5Result) Title() string {
	return "Figure 5: Power consumption over frequency when varying the operating point (10/30/50/70% load)"
}

// WriteText implements Result.
func (r *Fig5Result) WriteText(w io.Writer) error {
	if len(r.Points) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%6s %6s %-12s %12s %12s %8s\n", "load%", "cores", "freq", "predict mW", "measure mW", "optimal")
	for _, p := range r.Points {
		mark := ""
		if p.Optimal {
			mark = "*"
		}
		fmt.Fprintf(w, "%6.0f %6d %-12v %12.1f %12.1f %8s\n",
			p.GlobalLoad*100, p.Cores, p.Freq, p.PredictedWatts*1000, p.MeasuredWatts*1000, mark)
	}
	return nil
}

// RunFig5 enumerates, for each of the four global loads, every (cores,
// frequency) combination able to serve the demanded throughput; each is
// priced by the §4.1 energy model and measured by simulation with the
// demand pinned. The model's minimum is starred — the "curve of optimal
// points" MobiCore decides around (§3.4).
func RunFig5(opt Options) (Result, error) {
	plat := platform.Nexus5().WithoutThrottle()
	model, err := power.NewModel(plat.Power, plat.Table)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	fmax := plat.Table.Max().Freq
	res := &Fig5Result{}
	for _, load := range []float64{0.10, 0.30, 0.50, 0.70} {
		demand := load * float64(plat.NumCores) * float64(fmax)
		points, err := core.SweepOperatingPoints(model, plat.Table, demand, plat.NumCores)
		if err != nil {
			return nil, fmt.Errorf("fig5 load=%.0f%%: %w", load*100, err)
		}
		best, err := core.ChooseOperatingPoint(model, plat.Table, demand, plat.NumCores)
		if err != nil {
			return nil, fmt.Errorf("fig5 load=%.0f%%: %w", load*100, err)
		}
		for _, p := range points {
			measured, err := measureOperatingPoint(plat, p.Cores, p.OPP.Freq, demand, opt)
			if err != nil {
				return nil, fmt.Errorf("fig5 load=%.0f%% (%d,%v): %w", load*100, p.Cores, p.OPP.Freq, err)
			}
			res.Points = append(res.Points, Fig5Point{
				GlobalLoad:     load,
				Cores:          p.Cores,
				Freq:           p.OPP.Freq,
				PredictedWatts: p.PredictedWatts,
				MeasuredWatts:  measured,
				Optimal:        p.Cores == best.Cores && p.OPP.Freq == best.OPP.Freq,
			})
		}
	}
	return res, nil
}

// measureOperatingPoint pins (cores, freq) and plays a scripted constant
// demand, returning the measured average power.
func measureOperatingPoint(plat platform.Platform, cores int, freq soc.Hz, demandCyclesPerSec float64, opt Options) (float64, error) {
	mgr, err := policy.Pinned(plat.Table, freq, cores)
	if err != nil {
		return 0, err
	}
	d := opt.dur(10 * time.Second)
	wl, err := workload.NewScripted("op-point", cores, []workload.Step{
		{Duration: d, CyclesPerSec: demandCyclesPerSec},
	})
	if err != nil {
		return 0, err
	}
	// Boot directly in the pinned state so short sessions measure the
	// operating point, not the boot transient.
	rep, err := sim.SessionSpec{
		Platform:     plat,
		Manager:      mgr,
		Workloads:    []workload.Workload{wl},
		Duration:     d,
		Seed:         opt.Seed,
		NoFuse:       opt.NoFuse,
		InitialFreq:  freq,
		InitialCores: cores,
	}.Run(context.Background())
	if err != nil {
		return 0, err
	}
	return rep.AvgPowerW, nil
}
