package experiment

import (
	"fmt"
	"io"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/games"
	"mobicore/internal/platform"
	"mobicore/internal/sim"
)

// EASPlaceRow is one (platform, workload, placer) session.
type EASPlaceRow struct {
	Platform string
	Workload string
	Placer   string
	AvgW     float64
	EnergyJ  float64
	AvgFPS   float64
	DropRate float64
	// Per-cluster energy attribution, indexed like ClusterNames.
	ClusterNames   []string
	ClusterEnergyJ []float64
}

// EASPlaceResult compares the greedy and EAS placers head to head on the
// heterogeneous profiles: same platform, same policy stack, same workload
// and seed — only the scheduler's placement rule differs. The interesting
// sessions are the ones where demand sits in the convexity-crossover
// region (arXiv:1401.4655): a mid-rate thread near the silver/LITTLE
// ladder's top costs more energy per cycle there than on a bigger cluster's
// low bins, which LITTLE-first greedy placement cannot see and EAS
// placement exploits. The per-cluster energy attribution shows where each
// placer actually spent the joules.
type EASPlaceResult struct {
	Rows []EASPlaceRow
	// CrossSeed carries the distribution block (per-cell mean ± 95% CI
	// and paired eas-vs-greedy deltas on matched seeds) when run at
	// Options.Seeds > 1; nil on single-seed runs.
	CrossSeed *CrossSeedStats
}

// ID implements Result.
func (*EASPlaceResult) ID() string { return "easplace" }

// Title implements Result.
func (*EASPlaceResult) Title() string {
	return "EAS placement: greedy vs energy-aware scheduling on heterogeneous profiles"
}

// WriteText implements Result.
func (r *EASPlaceResult) WriteText(w io.Writer) error {
	if len(r.Rows) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%-16s %-16s %-8s %10s %10s %8s %8s\n",
		"platform", "workload", "placer", "avg mW", "energy J", "fps", "drop%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %-16s %-8s %10.1f %10.2f %8.1f %8.1f\n",
			row.Platform, row.Workload, row.Placer, row.AvgW*1000, row.EnergyJ,
			row.AvgFPS, row.DropRate*100)
	}
	// Energy attribution: which cluster each placer burned the joules on.
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s / %s / %s:", row.Platform, row.Workload, row.Placer)
		for ci, name := range row.ClusterNames {
			fmt.Fprintf(w, " %s %.2f J", name, row.ClusterEnergyJ[ci])
		}
		fmt.Fprintln(w)
	}
	return r.CrossSeed.writeText(w)
}

// easplacePlatforms lists the heterogeneous profiles under comparison: the
// two-cluster big.LITTLE part and the three-cluster prime-core part.
func easplacePlatforms() []platform.Platform {
	return []platform.Platform{platform.Nexus6P(), platform.SD855()}
}

// easplaceGames lists the compared workloads: a heavy racing title whose
// render loop saturates a performance core, and a lighter puzzle title
// whose threads sit squarely in the convexity-crossover region.
func easplaceGames() []games.Profile {
	return []games.Profile{games.RealRacing3(), games.AngryBirds()}
}

// RunEASPlace plays each workload on each heterogeneous platform twice —
// once per placer — under the same per-cluster schedutil+load stack, and
// reports energy, FPS, and per-cluster energy attribution. The matrix is
// declared as a fleet.Spec, so sessions run on the batch driver's worker
// pool (Options.Parallel) while the rows keep the platform → workload →
// placer declaration order.
func RunEASPlace(opt Options) (Result, error) {
	workloads := make([]fleet.WorkloadFactory, 0, 2)
	for _, prof := range easplaceGames() {
		workloads = append(workloads, gameFactory(prof))
	}
	fres, err := runFleet(fleet.Spec{
		Platforms: easplacePlatforms(),
		Policies:  []fleet.PolicyFactory{governorFactory("schedutil")},
		Workloads: workloads,
		Placers:   []string{sim.PlacerGreedy, sim.PlacerEAS},
		Seeds:     opt.seedList(),
		Duration:  opt.dur(60 * time.Second),
	}, opt)
	if err != nil {
		return nil, fmt.Errorf("easplace: %w", err)
	}
	res := &EASPlaceResult{CrossSeed: crossSeed(fres, opt)}
	for _, c := range fres.Cells {
		if c.Seed != opt.Seed {
			continue // rows describe the first seed; stats cover the rest
		}
		res.Rows = append(res.Rows, EASPlaceRow{
			Platform:       c.Platform,
			Workload:       c.Workload,
			Placer:         c.Placer,
			AvgW:           c.Report.AvgPowerW,
			EnergyJ:        c.Report.EnergyJ,
			AvgFPS:         c.AvgFPS,
			DropRate:       c.DropRate,
			ClusterNames:   c.Report.ClusterNames,
			ClusterEnergyJ: c.Report.ClusterEnergyJ,
		})
	}
	return res, nil
}
