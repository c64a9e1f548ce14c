package fleet

import (
	"mobicore/internal/metrics"
)

// ciLevel is the confidence level every fleet interval reports.
const ciLevel = 0.95

// Stat is one metric's distribution across a group's seeds: the moment and
// quantile summary plus the analytic (Student-t) 95% confidence interval
// on the mean — the uncertainty bound that makes a cross-seed comparison a
// claim instead of a point estimate.
type Stat struct {
	Mean float64 `json:"mean"`
	// StdDev is the sample (n-1) standard deviation — the same basis the
	// CI bounds and the paired deltas use, so t·StdDev/√n reproduces the
	// printed interval.
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	// CI95Lo and CI95Hi bound the mean's 95% confidence interval; with a
	// single seed (or zero spread) they collapse onto the mean.
	CI95Lo float64 `json:"ci95_lo"`
	CI95Hi float64 `json:"ci95_hi"`
}

// statOf summarizes vals with the metrics toolkit: Welford moments for the
// mean and spread, nearest-rank percentiles for the quantiles, and the
// analytic Student-t interval for the mean's CI.
func statOf(vals []float64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	sum := metrics.SummaryOf(vals)
	p50, _ := metrics.PercentileOf(vals, 50)
	p95, _ := metrics.PercentileOf(vals, 95)
	ci, _ := metrics.MeanCI(vals, ciLevel)
	return Stat{
		Mean:   sum.Mean(),
		StdDev: sum.SampleStdDev(),
		Min:    sum.Min(),
		Max:    sum.Max(),
		P50:    p50,
		P95:    p95,
		CI95Lo: ci.Lo,
		CI95Hi: ci.Hi,
	}
}

// Aggregate is one matrix group — a (platform, policy, workload, placer)
// combination — summarized across its seeds.
type Aggregate struct {
	Platform string `json:"platform"`
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	Placer   string `json:"placer,omitempty"`
	// Seeds is how many cells the group aggregates.
	Seeds int `json:"seeds"`

	EnergyJ     Stat `json:"energy_j"`
	AvgFPS      Stat `json:"avg_fps"`
	DropRate    Stat `json:"drop_rate"`
	ThrottleSec Stat `json:"throttle_sec"`
	// HasFrames says whether AvgFPS/DropRate are meaningful (every cell
	// in the group rendered frames).
	HasFrames bool `json:"has_frames,omitempty"`
}

// aggregate groups cells by matrix coordinates (seed excluded) in first-
// appearance order and summarizes each group's energy, FPS, drop rate,
// and thermal-throttle residency.
func aggregate(cells []CellResult) []Aggregate {
	type group struct {
		agg                         Aggregate
		energy, fps, drop, throttle []float64
		frames                      bool
	}
	var order []groupKey
	groups := map[groupKey]*group{}
	for i := range cells {
		c := &cells[i]
		key := groupKey{c.Platform, c.Policy, c.Workload, c.Placer}
		g, ok := groups[key]
		if !ok {
			g = &group{
				agg: Aggregate{
					Platform: c.Platform,
					Policy:   c.Policy,
					Workload: c.Workload,
					Placer:   c.Placer,
				},
				frames: true,
			}
			groups[key] = g
			order = append(order, key)
		}
		g.energy = append(g.energy, c.Report.EnergyJ)
		g.throttle = append(g.throttle, c.Report.ThermalCappedSec)
		g.fps = append(g.fps, c.AvgFPS)
		g.drop = append(g.drop, c.DropRate)
		g.frames = g.frames && c.HasFrames
	}
	out := make([]Aggregate, 0, len(order))
	for _, key := range order {
		g := groups[key]
		g.agg.Seeds = len(g.energy)
		g.agg.EnergyJ = statOf(g.energy)
		g.agg.ThrottleSec = statOf(g.throttle)
		g.agg.HasFrames = g.frames
		if g.frames {
			g.agg.AvgFPS = statOf(g.fps)
			g.agg.DropRate = statOf(g.drop)
		}
		out = append(out, g.agg)
	}
	return out
}

// PairedStat is one metric's matched-seed difference between two
// conditions: the mean per-seed delta (B−A), its spread, the analytic 95%
// confidence interval on the mean delta, and the delta relative to A's
// mean (the "X% savings" figure with a sign: negative means B uses less).
type PairedStat struct {
	MeanDelta float64 `json:"mean_delta"`
	StdDev    float64 `json:"stddev"`
	CI95Lo    float64 `json:"ci95_lo"`
	CI95Hi    float64 `json:"ci95_hi"`
	// Rel is MeanDelta divided by condition A's mean (0 when that mean
	// is 0).
	Rel float64 `json:"rel"`
}

func pairedStatOf(a, b []float64) PairedStat {
	ps, err := metrics.PairedDiff(a, b, ciLevel)
	if err != nil {
		return PairedStat{}
	}
	return PairedStat{
		MeanDelta: ps.MeanDelta,
		StdDev:    ps.StdDev,
		CI95Lo:    ps.CI.Lo,
		CI95Hi:    ps.CI.Hi,
		Rel:       ps.Rel,
	}
}

// Comparison is a paired-difference summary between two conditions run on
// matched seeds: two policies under the same platform/workload/placer
// (Dimension "policy"), or two placers under the same
// platform/policy/workload (Dimension "placer"). Pairing by seed is what
// gives the interval its power — per-seed workload noise cancels in the
// difference, so the CI answers "does B beat A" even when the per-run
// spread dwarfs the gap.
type Comparison struct {
	// Dimension says which coordinate A and B range over: "policy" or
	// "placer".
	Dimension string `json:"dimension"`
	// The fixed context coordinates. Placer is the context for policy
	// comparisons; Policy for placer comparisons.
	Platform string `json:"platform"`
	Policy   string `json:"policy,omitempty"`
	Workload string `json:"workload"`
	Placer   string `json:"placer,omitempty"`
	// A and B are the compared condition names; deltas are B−A.
	A string `json:"a"`
	B string `json:"b"`
	// Seeds is the number of matched pairs.
	Seeds int `json:"seeds"`

	EnergyJ PairedStat `json:"energy_j"`
	// AvgFPS is meaningful only when HasFrames is set (both conditions
	// rendered frames on every matched seed).
	AvgFPS    PairedStat `json:"avg_fps"`
	HasFrames bool       `json:"has_frames,omitempty"`
}

// compare builds every paired-difference summary the cell set supports:
// policy-vs-policy within each (platform, workload, placer) context, then
// placer-vs-placer within each (platform, policy, workload) context. Only
// pairs with at least two matched seeds appear — a single seed has no
// spread to bound. Order is deterministic: contexts in first-appearance
// order, pairs in first-appearance order of their conditions.
func compare(cells []CellResult) []Comparison {
	out := compareBy(cells, "policy",
		func(c *CellResult) groupKey {
			return groupKey{Platform: c.Platform, Workload: c.Workload, Placer: c.Placer}
		},
		func(c *CellResult) string { return c.Policy })
	out = append(out, compareBy(cells, "placer",
		func(c *CellResult) groupKey {
			return groupKey{Platform: c.Platform, Policy: c.Policy, Workload: c.Workload}
		},
		func(c *CellResult) string { return c.Placer })...)
	return out
}

// compareBy pairs conditions (the subject dimension) within fixed
// contexts: the cell's group with the subject coordinate left empty.
func compareBy(cells []CellResult, dimension string, contextOf func(*CellResult) groupKey, subjectOf func(*CellResult) string) []Comparison {
	type condition struct {
		name  string
		seeds []int64 // appearance order
		cell  map[int64]*CellResult
	}
	type context struct {
		first  *CellResult
		conds  []*condition
		byName map[string]*condition
	}
	var order []groupKey
	contexts := map[groupKey]*context{}
	for i := range cells {
		c := &cells[i]
		key := contextOf(c)
		ctx, ok := contexts[key]
		if !ok {
			ctx = &context{first: c, byName: map[string]*condition{}}
			contexts[key] = ctx
			order = append(order, key)
		}
		name := subjectOf(c)
		cond, ok := ctx.byName[name]
		if !ok {
			cond = &condition{name: name, cell: map[int64]*CellResult{}}
			ctx.byName[name] = cond
			ctx.conds = append(ctx.conds, cond)
		}
		if _, dup := cond.cell[c.Seed]; !dup {
			cond.cell[c.Seed] = c
			cond.seeds = append(cond.seeds, c.Seed)
		}
	}
	var out []Comparison
	for _, key := range order {
		ctx := contexts[key]
		for i := 0; i < len(ctx.conds); i++ {
			for j := i + 1; j < len(ctx.conds); j++ {
				a, b := ctx.conds[i], ctx.conds[j]
				var (
					aEnergy, bEnergy []float64
					aFPS, bFPS       []float64
					frames           = true
				)
				for _, seed := range a.seeds {
					ca := a.cell[seed]
					cb, ok := b.cell[seed]
					if !ok {
						continue
					}
					aEnergy = append(aEnergy, ca.Report.EnergyJ)
					bEnergy = append(bEnergy, cb.Report.EnergyJ)
					aFPS = append(aFPS, ca.AvgFPS)
					bFPS = append(bFPS, cb.AvgFPS)
					frames = frames && ca.HasFrames && cb.HasFrames
				}
				if len(aEnergy) < 2 {
					continue // one matched seed has no spread to bound
				}
				cmp := Comparison{
					Dimension: dimension,
					Platform:  ctx.first.Platform,
					Workload:  ctx.first.Workload,
					A:         a.name,
					B:         b.name,
					Seeds:     len(aEnergy),
					EnergyJ:   pairedStatOf(aEnergy, bEnergy),
					HasFrames: frames,
				}
				if dimension == "policy" {
					cmp.Placer = ctx.first.Placer
				} else {
					cmp.Policy = ctx.first.Policy
				}
				if frames {
					cmp.AvgFPS = pairedStatOf(aFPS, bFPS)
				}
				out = append(out, cmp)
			}
		}
	}
	return out
}
