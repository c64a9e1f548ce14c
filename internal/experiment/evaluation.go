package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"mobicore/internal/games"
	"mobicore/internal/geekbench"
	"mobicore/internal/metrics"
	"mobicore/internal/platform"
	"mobicore/internal/stack"
)

// Fig9aRow compares the two policies at one utilization point of the
// hand-written benchmark.
type Fig9aRow struct {
	Util        float64
	DefaultW    float64
	MobiCoreW   float64
	SavingsFrac float64
}

// Fig9aResult reproduces Figure 9(a): power on the hand-written benchmark,
// MobiCore vs the Android default, utilization 10–100%.
type Fig9aResult struct {
	Rows []Fig9aRow
}

// ID implements Result.
func (*Fig9aResult) ID() string { return "fig9a" }

// Title implements Result.
func (*Fig9aResult) Title() string {
	return "Figure 9a: Power consumption on the hand-written benchmark (MobiCore vs Android default)"
}

// WriteText implements Result.
func (r *Fig9aResult) WriteText(w io.Writer) error {
	if len(r.Rows) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%6s %12s %12s %9s\n", "util%", "default mW", "mobicore mW", "saving%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.0f %12.1f %12.1f %9.1f\n",
			row.Util*100, row.DefaultW*1000, row.MobiCoreW*1000, row.SavingsFrac*100)
	}
	fmt.Fprintf(w, "average saving: %.1f%%\n", r.AverageSavings()*100)
	return nil
}

// AverageSavings returns the mean saving across utilization points (the
// paper reports 13.9%).
func (r *Fig9aResult) AverageSavings() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, row := range r.Rows {
		sum += row.SavingsFrac
	}
	return sum / float64(len(r.Rows))
}

// RunFig9a sweeps the kernel app 10–100% under both policies.
func RunFig9a(opt Options) (Result, error) {
	plat := platform.Nexus5()
	res := &Fig9aResult{}
	for util := 0.1; util <= 1.001; util += 0.1 {
		var watts [2]float64
		for i, name := range []string{stack.AndroidDefault, stack.MobiCore} {
			mgr, err := stack.Build(name, plat)
			if err != nil {
				return nil, fmt.Errorf("fig9a: %w", err)
			}
			wl, err := utilLoop(util, plat.NumCores, plat.Table.Max().Freq)
			if err != nil {
				return nil, fmt.Errorf("fig9a: %w", err)
			}
			rep, err := opt.spec(plat, mgr, wl, opt.dur(60*time.Second)).Run(context.Background())
			if err != nil {
				return nil, fmt.Errorf("fig9a u=%.1f %s: %w", util, mgr.Name(), err)
			}
			watts[i] = rep.AvgPowerW
		}
		res.Rows = append(res.Rows, Fig9aRow{
			Util:        util,
			DefaultW:    watts[0],
			MobiCoreW:   watts[1],
			SavingsFrac: -metrics.RelativeChange(watts[0], watts[1]),
		})
	}
	return res, nil
}

// Fig9bResult reproduces Figure 9(b): the GeekBench-style comparison.
type Fig9bResult struct {
	DefaultScore   float64
	MobiCoreScore  float64
	DefaultW       float64
	MobiCoreW      float64
	EfficiencyGain float64 // score-per-watt improvement of MobiCore
}

// ID implements Result.
func (*Fig9bResult) ID() string { return "fig9b" }

// Title implements Result.
func (*Fig9bResult) Title() string {
	return "Figure 9b: GeekBench-style benchmark under MobiCore vs Android default"
}

// PowerSavings returns MobiCore's power reduction during the benchmark —
// the reading §6.4 gives Figure 9b ("23% power savings").
func (r *Fig9bResult) PowerSavings() float64 {
	if r.DefaultW == 0 {
		return 0
	}
	return 1 - r.MobiCoreW/r.DefaultW
}

// WriteText implements Result.
func (r *Fig9bResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %10s %10s %12s\n", "policy", "score", "avg mW", "score/W")
	fmt.Fprintf(w, "%-10s %10.0f %10.1f %12.0f\n", "default", r.DefaultScore, r.DefaultW*1000, r.DefaultScore/r.DefaultW)
	fmt.Fprintf(w, "%-10s %10.0f %10.1f %12.0f\n", "mobicore", r.MobiCoreScore, r.MobiCoreW*1000, r.MobiCoreScore/r.MobiCoreW)
	fmt.Fprintf(w, "power saving: %.1f%% (paper §6.4: ≈23%%); efficiency gain: %.1f%%\n",
		r.PowerSavings()*100, r.EfficiencyGain*100)
	return nil
}

// RunFig9b runs the benchmark suite to completion under both policies and
// compares score, power, and score-per-watt. The thesis reports MobiCore
// "outperforms the Android default policy by almost 23%", interpreted in
// §6.4 as the efficiency (power-normalized) result.
func RunFig9b(opt Options) (Result, error) {
	plat := platform.Nexus5()
	iterations := int(3 * opt.scale())
	if iterations < 1 {
		iterations = 1
	}
	type outcome struct {
		score float64
		watts float64
	}
	runOne := func(mobicore bool) (outcome, error) {
		mgr, err := stack.Build(stackName(mobicore), plat)
		if err != nil {
			return outcome{}, err
		}
		run, err := geekbench.NewRun(geekbench.StandardSuite(), plat.Table, plat.NumCores, iterations)
		if err != nil {
			return outcome{}, err
		}
		const bound = 10 * time.Minute
		s, err := opt.spec(plat, mgr, run, bound).New()
		if err != nil {
			return outcome{}, err
		}
		rep, done, err := s.RunUntilDone(bound)
		if err != nil {
			return outcome{}, err
		}
		if !done {
			return outcome{}, fmt.Errorf("benchmark did not finish within bound")
		}
		score, err := run.ScoreAfter(rep.Duration)
		if err != nil {
			return outcome{}, err
		}
		return outcome{score: score, watts: rep.AvgPowerW}, nil
	}
	def, err := runOne(false)
	if err != nil {
		return nil, fmt.Errorf("fig9b default: %w", err)
	}
	mob, err := runOne(true)
	if err != nil {
		return nil, fmt.Errorf("fig9b mobicore: %w", err)
	}
	return &Fig9bResult{
		DefaultScore:   def.score,
		MobiCoreScore:  mob.score,
		DefaultW:       def.watts,
		MobiCoreW:      mob.watts,
		EfficiencyGain: (mob.score/mob.watts)/(def.score/def.watts) - 1,
	}, nil
}

// GameRow is one game's full per-policy comparison — it feeds Figures 10,
// 11, 12, and 13, which are four views of the same five sessions.
type GameRow struct {
	Game string

	DefaultW  float64
	MobiCoreW float64

	DefaultFPS  float64
	MobiCoreFPS float64

	DefaultFreqHz  float64
	MobiCoreFreqHz float64

	DefaultCores  float64
	MobiCoreCores float64

	DefaultUtil  float64
	MobiCoreUtil float64
}

// SavingsFrac is the power saving of MobiCore for this game.
func (g GameRow) SavingsFrac() float64 {
	return -metrics.RelativeChange(g.DefaultW, g.MobiCoreW)
}

// FPSRatio is MobiCore FPS over default FPS.
func (g GameRow) FPSRatio() float64 {
	if g.DefaultFPS == 0 {
		return 0
	}
	return g.MobiCoreFPS / g.DefaultFPS
}

// FreqReductionFrac is the relative frequency reduction under MobiCore.
func (g GameRow) FreqReductionFrac() float64 {
	return -metrics.RelativeChange(g.DefaultFreqHz, g.MobiCoreFreqHz)
}

// LoadReduction is the absolute utilization reduction under MobiCore.
func (g GameRow) LoadReduction() float64 {
	return g.DefaultUtil - g.MobiCoreUtil
}

// runGames plays every title for the paper's 2-minute session under both
// policies. Nothing is cached: each of Figures 10–13 calls it and replays
// the same ten 2-minute sessions.
func runGames(opt Options) ([]GameRow, error) {
	plat := platform.Nexus5()
	rows := make([]GameRow, 0, 5)
	for _, prof := range games.All() {
		row := GameRow{Game: prof.Name}
		for _, mobicore := range []bool{false, true} {
			mgr, err := stack.Build(stackName(mobicore), plat)
			if err != nil {
				return nil, fmt.Errorf("games %s: %w", prof.Name, err)
			}
			g, err := games.New(prof)
			if err != nil {
				return nil, fmt.Errorf("games %s: %w", prof.Name, err)
			}
			rep, err := opt.spec(plat, mgr, g, opt.dur(120*time.Second)).Run(context.Background())
			if err != nil {
				return nil, fmt.Errorf("games %s: %w", prof.Name, err)
			}
			if mobicore {
				row.MobiCoreW = rep.AvgPowerW
				row.MobiCoreFPS = g.AvgFPS()
				row.MobiCoreFreqHz = rep.AvgFreqHz
				row.MobiCoreCores = rep.AvgOnlineCores
				row.MobiCoreUtil = rep.AvgUtil
			} else {
				row.DefaultW = rep.AvgPowerW
				row.DefaultFPS = g.AvgFPS()
				row.DefaultFreqHz = rep.AvgFreqHz
				row.DefaultCores = rep.AvgOnlineCores
				row.DefaultUtil = rep.AvgUtil
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// stackName names the stack of one side of a MobiCore-versus-default
// comparison.
func stackName(mobicore bool) string {
	if mobicore {
		return stack.MobiCore
	}
	return stack.AndroidDefault
}
