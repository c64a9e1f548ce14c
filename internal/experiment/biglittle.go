package experiment

import (
	"fmt"
	"io"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/games"
	"mobicore/internal/metrics"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
	"mobicore/internal/stack"
)

// BigLittleRow is one policy's session on the big.LITTLE platform.
type BigLittleRow struct {
	Policy   string
	AvgW     float64
	AvgFPS   float64
	AvgUtil  float64
	Clusters []BigLittleClusterRow
}

// BigLittleClusterRow is one cluster's share of a session.
type BigLittleClusterRow struct {
	Name       string
	AvgFreqHz  float64
	AvgCores   float64
	FreqSeries metrics.Series
	CoreSeries metrics.Series
}

// BigLittleResult extends the thesis' evaluation past its 2014-era
// handsets: MobiCore against three stock governor stacks on a Snapdragon
// 810-class 4×A57+4×A53 device under a gaming workload, with per-cluster
// frequency and online-core traces.
type BigLittleResult struct {
	Game string
	Rows []BigLittleRow
	// CrossSeed carries the distribution block (per-policy mean ± 95% CI
	// and paired MobiCore-vs-governor deltas) when run at Options.Seeds
	// > 1; nil on single-seed runs. The Rows always describe the first
	// seed, so single-seed output is unchanged.
	CrossSeed *CrossSeedStats
}

// ID implements Result.
func (*BigLittleResult) ID() string { return "biglittle" }

// Title implements Result.
func (*BigLittleResult) Title() string {
	return "big.LITTLE extension: MobiCore vs stock governors on a Snapdragon 810-class device"
}

// WriteText implements Result.
func (r *BigLittleResult) WriteText(w io.Writer) error {
	if len(r.Rows) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "game: %s\n", r.Game)
	fmt.Fprintf(w, "%-18s %10s %8s %8s", "policy", "avg mW", "fps", "util%")
	for _, cl := range r.Rows[0].Clusters {
		fmt.Fprintf(w, " %14s %10s", cl.Name+" freq", cl.Name+" cores")
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %10.1f %8.1f %8.1f", row.Policy, row.AvgW*1000, row.AvgFPS, row.AvgUtil*100)
		for _, cl := range row.Clusters {
			fmt.Fprintf(w, " %14v %10.2f", soc.Hz(cl.AvgFreqHz), cl.AvgCores)
		}
		fmt.Fprintln(w)
	}
	// Per-cluster frequency/online traces, downsampled to ~12 points so
	// the text output stays a figure rather than a dump.
	for _, row := range r.Rows {
		for _, cl := range row.Clusters {
			fmt.Fprintf(w, "%s / %s: freq MHz %s | cores %s\n",
				row.Policy, cl.Name,
				sparkline(cl.FreqSeries, 1e6), sparkline(cl.CoreSeries, 1))
		}
	}
	return r.CrossSeed.writeText(w)
}

// sparkline renders up to 12 evenly spaced samples of a series, scaled.
func sparkline(s metrics.Series, scale float64) string {
	n := s.Len()
	if n == 0 {
		return "[]"
	}
	step := n / 12
	if step < 1 {
		step = 1
	}
	out := "["
	for i := 0; i < n; i += step {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.0f", s.At(i).Value/scale)
	}
	return out + "]"
}

// bigLittlePolicies enumerates the compared stacks as fleet policy
// factories, in report order: the clustered MobiCore and three stock
// governors, each run per cluster as an independent cpufreq policy domain
// with the global load hotplug.
func bigLittlePolicies() []fleet.PolicyFactory {
	factories := []fleet.PolicyFactory{fleet.Policy(stack.MobiCore)}
	for _, gov := range []string{"ondemand", "interactive", "schedutil"} {
		factories = append(factories, governorFactory(gov))
	}
	return factories
}

// RunBigLittle plays a 2-minute Real Racing 3 session per policy on the
// Nexus 6P profile and reports power, FPS, and per-cluster traces. The
// policy comparison is declared as a fleet.Spec and runs on the batch
// driver's worker pool (Options.Parallel).
func RunBigLittle(opt Options) (Result, error) {
	prof := games.RealRacing3()
	fres, err := runFleet(fleet.Spec{
		Platforms: []platform.Platform{platform.Nexus6P()},
		Policies:  bigLittlePolicies(),
		Workloads: []fleet.WorkloadFactory{gameFactory(prof)},
		Seeds:     opt.seedList(),
		Duration:  opt.dur(120 * time.Second),
	}, opt)
	if err != nil {
		return nil, fmt.Errorf("biglittle: %w", err)
	}
	res := &BigLittleResult{Game: prof.Name, CrossSeed: crossSeed(fres, opt)}
	for _, c := range fres.Cells {
		if c.Seed != opt.Seed {
			continue // rows describe the first seed; stats cover the rest
		}
		rep := c.Report
		row := BigLittleRow{
			Policy:  c.Policy,
			AvgW:    rep.AvgPowerW,
			AvgFPS:  c.AvgFPS,
			AvgUtil: rep.AvgUtil,
		}
		for ci, cn := range rep.ClusterNames {
			row.Clusters = append(row.Clusters, BigLittleClusterRow{
				Name:       cn,
				AvgFreqHz:  rep.AvgClusterFreqHz[ci],
				AvgCores:   rep.AvgClusterCores[ci],
				FreqSeries: rep.ClusterFreqSeries[ci],
				CoreSeries: rep.ClusterCoreSeries[ci],
			})
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// governorFactory is the fleet policy "<gov>+load", labelled gov: one
// governor instance per cluster with the global load hotplug.
func governorFactory(gov string) fleet.PolicyFactory {
	return fleet.PolicyFactory{
		Name: gov,
		New:  func(p platform.Platform) (policy.Manager, error) { return stack.Build(gov+"+load", p) },
	}
}
