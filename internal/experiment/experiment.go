// Package experiment regenerates every table and figure of the thesis'
// evaluation. Each experiment is a pure function from Options to a result
// struct that renders itself as text (the rows/series the paper plots);
// the registry maps the paper's numbering (table1, fig1 … fig13) to
// runners for cmd/mobibench and the root benchmark harness.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/games"
	"mobicore/internal/natsort"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/sim"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// Options scale every experiment.
type Options struct {
	// Scale multiplies all session durations. 1.0 reproduces the paper's
	// timings (1-minute sweeps, 2-minute gaming sessions); tests and
	// benches use smaller values. Zero means 1.0.
	Scale float64
	// Seed drives workload randomness.
	Seed int64
	// Parallel bounds the fleet worker pool multi-cell experiments
	// (biglittle, easplace, sustained) run their sessions on; 0 means
	// GOMAXPROCS. Parallelism never changes results — each session owns
	// its rng and rows keep declaration order — only wall-clock time.
	Parallel int
	// Seeds runs the fleet-driven experiments (biglittle, easplace,
	// sustained) at this many consecutive seeds starting from Seed and
	// appends cross-seed statistics to the report: per-group mean ± 95%
	// CI and paired matched-seed deltas on the headline comparisons. 0 or
	// 1 keeps the single-seed output byte-identical to earlier releases.
	Seeds int
	// NoFuse disables the engine's quiescent-tick fast path in every
	// session (see sim.SessionSpec.NoFuse). Output is byte-identical
	// either way; the equivalence tests run each experiment both ways and
	// compare rendered reports.
	NoFuse bool
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// dur scales a paper-duration by the option scale, clamping to at least ten
// governor sampling periods so every run exercises the control loop.
func (o Options) dur(paper time.Duration) time.Duration {
	d := time.Duration(float64(paper) * o.scale())
	if min := 500 * time.Millisecond; d < min {
		d = min
	}
	return d
}

// Result is anything an experiment produces: a renderable set of rows.
type Result interface {
	// ID returns the paper item this reproduces (e.g. "fig9a").
	ID() string
	// Title returns the paper caption.
	Title() string
	// WriteText renders the rows as human-readable text.
	WriteText(w io.Writer) error
}

// Runner regenerates one paper item.
type Runner func(Options) (Result, error)

// registry maps experiment ids to runners. Populated by Register calls from
// Runners(); ids follow the paper's numbering.
func runners() map[string]Runner {
	return map[string]Runner{
		"biglittle": RunBigLittle,
		"dayinlife": RunDayInLife,
		"easplace":  RunEASPlace,
		"sustained": RunSustained,
		"table1":    RunTable1,
		"table2":    RunTable2,
		"static":    RunStaticAnchor,
		"fig1":      RunFig1,
		"fig2":      RunFig2,
		"fig3":      RunFig3,
		"fig4":      RunFig4,
		"fig5":      RunFig5,
		"fig6":      RunFig6,
		"fig7":      RunFig7,
		"fig9a":     RunFig9a,
		"fig9b":     RunFig9b,
		"fig10":     RunFig10,
		"fig11":     RunFig11,
		"fig12":     RunFig12,
		"fig13":     RunFig13,
	}
}

// IDs lists every experiment id in stable natural order: digit runs
// compare numerically, so fig2 precedes fig10 and `mobibench list`/`all`
// follow the paper's numbering instead of ASCII order.
func IDs() []string {
	m := runners()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	natsort.Strings(ids)
	return ids
}

// naturalLess is the shared natural id ordering (see internal/natsort).
func naturalLess(a, b string) bool { return natsort.Less(a, b) }

// Lookup resolves an experiment id.
func Lookup(id string) (Runner, error) {
	r, ok := runners()[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return r, nil
}

// Run executes one experiment by id.
func Run(id string, opt Options) (Result, error) {
	r, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return r(opt)
}

// --- shared helpers -------------------------------------------------------

// spec describes one single-workload session of duration d as a
// sim.SessionSpec, the one construction path shared with the fleet driver.
// It carries the option's Seed and NoFuse, so every session an experiment
// runs honours both.
func (o Options) spec(plat platform.Platform, mgr policy.Manager, wl workload.Workload, d time.Duration) sim.SessionSpec {
	return sim.SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{wl},
		Duration:  d,
		Seed:      o.Seed,
		NoFuse:    o.NoFuse,
	}
}

// seedList expands Options into the fleet seed dimension: Seeds
// consecutive seeds from Seed (a single seed when Seeds <= 1).
func (o Options) seedList() []int64 {
	n := o.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = o.Seed + int64(i)
	}
	return out
}

// runFleet executes a declared fleet matrix with the option's parallelism
// and hands back the full result (cells in declaration order, cross-seed
// aggregates, paired comparisons).
func runFleet(spec fleet.Spec, opt Options) (*fleet.Result, error) {
	spec.Parallel = opt.Parallel
	spec.NoFuse = opt.NoFuse
	return fleet.Run(context.Background(), spec)
}

// CrossSeedStats is the distribution block a fleet-driven experiment
// carries when run at Options.Seeds > 1: each matrix group's cross-seed
// aggregates (mean ± stddev and the mean's 95% CI) plus the paired
// matched-seed deltas on the experiment's headline comparisons. Nil on
// single-seed runs, whose output stays byte-identical to earlier releases.
type CrossSeedStats struct {
	// Seeds is the seed count every group ran.
	Seeds int `json:"seeds"`
	// Aggregates holds one entry per matrix group, in first-cell order.
	Aggregates []fleet.Aggregate `json:"aggregates"`
	// Comparisons holds the paired deltas (policy vs policy, placer vs
	// placer) on matched seeds.
	Comparisons []fleet.Comparison `json:"comparisons"`
}

// crossSeed builds the stats block from a fleet result, nil unless the
// options asked for a multi-seed run.
func crossSeed(res *fleet.Result, opt Options) *CrossSeedStats {
	if opt.Seeds <= 1 {
		return nil
	}
	return &CrossSeedStats{
		Seeds:       opt.Seeds,
		Aggregates:  res.Aggregates,
		Comparisons: res.Comparisons,
	}
}

// writeText renders the stats block: per-group intervals first, then the
// paired deltas that answer "does A beat B, and by how much ± what".
func (cs *CrossSeedStats) writeText(w io.Writer) error {
	if cs == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "cross-seed statistics (%d seeds, mean ± stddev, 95%% CI):\n", cs.Seeds); err != nil {
		return err
	}
	for _, a := range cs.Aggregates {
		placer := a.Placer
		if placer == "" {
			placer = "greedy"
		}
		if _, err := fmt.Fprintf(w, "  %s / %s / %s / %s: energy %.4g ± %.3g J ci95 [%.4g, %.4g]",
			a.Platform, a.Policy, a.Workload, placer,
			a.EnergyJ.Mean, a.EnergyJ.StdDev, a.EnergyJ.CI95Lo, a.EnergyJ.CI95Hi); err != nil {
			return err
		}
		if a.HasFrames {
			if _, err := fmt.Fprintf(w, "; fps %.3g ci95 [%.3g, %.3g]",
				a.AvgFPS.Mean, a.AvgFPS.CI95Lo, a.AvgFPS.CI95Hi); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "; throttle %.3g s ci95 [%.3g, %.3g]\n",
			a.ThrottleSec.Mean, a.ThrottleSec.CI95Lo, a.ThrottleSec.CI95Hi); err != nil {
			return err
		}
	}
	if len(cs.Comparisons) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "paired deltas (B-A on matched seeds, 95% CI):"); err != nil {
		return err
	}
	for _, c := range cs.Comparisons {
		context := c.Placer
		if c.Dimension == "placer" {
			context = c.Policy
		}
		if _, err := fmt.Fprintf(w, "  %s / %s / %s: %s - %s: energy %+.4g J ci95 [%+.4g, %+.4g] (%+.1f%%)",
			c.Platform, c.Workload, context, c.B, c.A,
			c.EnergyJ.MeanDelta, c.EnergyJ.CI95Lo, c.EnergyJ.CI95Hi, c.EnergyJ.Rel*100); err != nil {
			return err
		}
		if c.HasFrames {
			if _, err := fmt.Fprintf(w, "; fps %+.3g ci95 [%+.3g, %+.3g]",
				c.AvgFPS.MeanDelta, c.AvgFPS.CI95Lo, c.AvgFPS.CI95Hi); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// gameFactory builds a fresh instance of one game profile per fleet cell.
func gameFactory(prof games.Profile) fleet.WorkloadFactory {
	return fleet.WorkloadFactory{
		Name: prof.Name,
		New: func() ([]workload.Workload, error) {
			g, err := games.New(prof)
			if err != nil {
				return nil, err
			}
			return []workload.Workload{g}, nil
		},
	}
}

// stressLoop builds a continuous full-utilization busy loop across n
// threads, the "highest computing state" stressor of §1.2.
func stressLoop(n int, ref soc.Hz) (workload.Workload, error) {
	return workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: 1.0,
		Threads:    n,
		RefFreq:    ref,
	})
}

// utilLoop builds the §3.1 kernel app at a utilization target.
func utilLoop(util float64, threads int, ref soc.Hz) (workload.Workload, error) {
	return workload.NewBusyLoop(workload.BusyLoopConfig{
		TargetUtil: util,
		Threads:    threads,
		RefFreq:    ref,
	})
}

// fiveBenchFreqs picks the "two low, two high, and one middle" frequencies
// of §3.1 from a table.
func fiveBenchFreqs(table *soc.OPPTable) []soc.Hz {
	n := table.Len()
	if n < 5 {
		return table.Frequencies()
	}
	idx := []int{0, 1, n / 2, n - 2, n - 1}
	out := make([]soc.Hz, 0, len(idx))
	for _, i := range idx {
		out = append(out, table.At(i).Freq)
	}
	return out
}

// errNoData guards renderers against empty results.
var errNoData = errors.New("experiment: no data")
