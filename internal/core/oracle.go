package core

import (
	"errors"
	"fmt"
	"math"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// OperatingPoint is one (cores, frequency) combination with its predicted
// power — a point on the §3.4 trade-off curve.
type OperatingPoint struct {
	Cores          int
	OPP            soc.OPP
	PredictedWatts float64
}

// ChooseOperatingPoint exhaustively minimizes the energy model over every
// (n, f) combination that can serve the demanded throughput — the §4.2
// model validation ("the best one is chosen by our model"). It returns the
// minimum-power point; ties break towards fewer cores, then lower frequency.
func ChooseOperatingPoint(m *power.Model, table *soc.OPPTable, demandCyclesPerSec float64, maxCores int) (OperatingPoint, error) {
	if m == nil || table == nil || table.Len() == 0 {
		return OperatingPoint{}, errors.New("core: oracle needs a model and table")
	}
	if maxCores < 1 {
		return OperatingPoint{}, errors.New("core: oracle needs at least one core")
	}
	if demandCyclesPerSec < 0 {
		return OperatingPoint{}, errors.New("core: negative demand")
	}
	best := OperatingPoint{PredictedWatts: math.Inf(1)}
	feasible := false
	for n := 1; n <= maxCores; n++ {
		for _, opp := range table.Points() {
			if !power.CapacityMet(n, opp, demandCyclesPerSec) {
				continue
			}
			watts, err := m.PredictWatts(n, opp, demandCyclesPerSec, maxCores)
			if err != nil {
				return OperatingPoint{}, fmt.Errorf("core: predicting (%d,%v): %w", n, opp.Freq, err)
			}
			if watts < best.PredictedWatts {
				best = OperatingPoint{Cores: n, OPP: opp, PredictedWatts: watts}
				feasible = true
			}
		}
	}
	if !feasible {
		// Demand exceeds the whole SoC: run everything flat out.
		opp := table.Max()
		watts, err := m.PredictWatts(maxCores, opp, demandCyclesPerSec, maxCores)
		if err != nil {
			return OperatingPoint{}, err
		}
		return OperatingPoint{Cores: maxCores, OPP: opp, PredictedWatts: watts}, nil
	}
	return best, nil
}

// SweepOperatingPoints evaluates the predicted power of every feasible
// (cores, frequency) combination for a demand — the data behind Figure 5's
// four panels. Points that cannot serve the demand are omitted.
func SweepOperatingPoints(m *power.Model, table *soc.OPPTable, demandCyclesPerSec float64, maxCores int) ([]OperatingPoint, error) {
	if m == nil || table == nil || table.Len() == 0 {
		return nil, errors.New("core: sweep needs a model and table")
	}
	out := make([]OperatingPoint, 0, maxCores*table.Len())
	for n := 1; n <= maxCores; n++ {
		for _, opp := range table.Points() {
			if !power.CapacityMet(n, opp, demandCyclesPerSec) {
				continue
			}
			watts, err := m.PredictWatts(n, opp, demandCyclesPerSec, maxCores)
			if err != nil {
				return nil, err
			}
			out = append(out, OperatingPoint{Cores: n, OPP: opp, PredictedWatts: watts})
		}
	}
	return out, nil
}

// ClusterOperatingPoint is one cluster's share of a joint heterogeneous
// operating point: how many of its cores run and at which OPP. Cores == 0
// parks the whole domain (OPP is then the domain floor).
type ClusterOperatingPoint struct {
	Cores int
	OPP   soc.OPP
}

// ChooseClusterOperatingPoints generalizes the §4.2 exhaustive search to a
// heterogeneous SoC: it jointly minimizes predicted power over every
// per-cluster (cores, frequency) combination whose aggregate capacity
// serves the demand, pricing each candidate with the per-cluster models
// (demand split proportional to capacity — the balanced-scheduler
// assumption of §3.2) plus the platform floor paid once. Any cluster may
// park entirely as long as at least one core stays online somewhere. Ties
// break towards fewer total cores, then lower aggregate capacity. When even
// the whole SoC flat out cannot serve the demand it returns the full-blast
// configuration, mirroring the homogeneous fallback.
func ChooseClusterOperatingPoints(baseWatts float64, models []*power.Model, tables []*soc.OPPTable, clusterCores []int, demandCyclesPerSec float64) ([]ClusterOperatingPoint, float64, error) {
	n := len(models)
	if n == 0 || len(tables) != n || len(clusterCores) != n {
		return nil, 0, fmt.Errorf("core: cluster oracle needs parallel models/tables/cores, got %d/%d/%d",
			len(models), len(tables), len(clusterCores))
	}
	if baseWatts < 0 {
		return nil, 0, errors.New("core: negative base watts")
	}
	if demandCyclesPerSec < 0 {
		return nil, 0, errors.New("core: negative demand")
	}
	for ci := 0; ci < n; ci++ {
		if models[ci] == nil || tables[ci] == nil || tables[ci].Len() == 0 {
			return nil, 0, fmt.Errorf("core: cluster %d missing model or table", ci)
		}
		if clusterCores[ci] < 1 {
			return nil, 0, fmt.Errorf("core: cluster %d core count %d", ci, clusterCores[ci])
		}
	}

	var (
		bestChoice []ClusterOperatingPoint
		bestWatts  = math.Inf(1)
		bestCores  = math.MaxInt
		bestCap    = math.Inf(1)
		cur        = make([]ClusterOperatingPoint, n)
	)
	price := func(choice []ClusterOperatingPoint, totalCap float64) float64 {
		watts := baseWatts
		for ci, ch := range choice {
			share := 0.0
			if totalCap > 0 && ch.Cores > 0 {
				share = demandCyclesPerSec * (float64(ch.Cores) * float64(ch.OPP.Freq)) / totalCap
			}
			watts += clusterPredictWatts(models[ci], ch.Cores, ch.OPP, share, clusterCores[ci])
		}
		return watts
	}
	var walk func(ci, cores int, capacity float64)
	walk = func(ci, cores int, capacity float64) {
		if ci == n {
			if cores < 1 || capacity < demandCyclesPerSec {
				return
			}
			watts := price(cur, capacity)
			if watts < bestWatts ||
				(watts == bestWatts && cores < bestCores) ||
				(watts == bestWatts && cores == bestCores && capacity < bestCap) {
				bestChoice = append(bestChoice[:0], cur...)
				bestWatts, bestCores, bestCap = watts, cores, capacity
			}
			return
		}
		cur[ci] = ClusterOperatingPoint{Cores: 0, OPP: tables[ci].Min()}
		walk(ci+1, cores, capacity)
		for c := 1; c <= clusterCores[ci]; c++ {
			for _, opp := range tables[ci].Points() {
				cur[ci] = ClusterOperatingPoint{Cores: c, OPP: opp}
				walk(ci+1, cores+c, capacity+float64(c)*float64(opp.Freq))
			}
		}
	}
	walk(0, 0, 0)

	if bestChoice == nil {
		// Demand exceeds the whole SoC: run everything flat out.
		full := make([]ClusterOperatingPoint, n)
		totalCap := 0.0
		for ci := 0; ci < n; ci++ {
			full[ci] = ClusterOperatingPoint{Cores: clusterCores[ci], OPP: tables[ci].Max()}
			totalCap += float64(clusterCores[ci]) * float64(tables[ci].Max().Freq)
		}
		return full, price(full, totalCap), nil
	}
	return bestChoice, bestWatts, nil
}

// clusterPredictWatts prices one cluster serving shareCyclesPerSec on
// cores active cores at opp, the rest power-gated — Model.PredictWatts
// without the per-cluster base (the platform floor is paid once by the
// caller) and without slice allocation in the search's hot loop.
func clusterPredictWatts(m *power.Model, cores int, opp soc.OPP, shareCyclesPerSec float64, totalCores int) float64 {
	off := float64(totalCores-cores) * m.Params().OfflineWatts
	if cores == 0 {
		return off
	}
	util := shareCyclesPerSec / (float64(cores) * float64(opp.Freq))
	util = clamp(util, 0, 1)
	return float64(cores)*m.CoreWatts(soc.StateActive, opp, util) + off + m.CacheWatts(util, opp.Freq)
}

// ClusteredOracle is the model-driven reference manager: each period it
// measures served demand, adds headroom, and programs the joint
// per-cluster optimum from ChooseClusterOperatingPoints. It is the
// reference MobiCore's closed-form law is validated against; bandwidth is
// left alone so the comparison isolates operating-point selection. On a
// homogeneous SoC the search is ChooseOperatingPoint's over one cluster.
type ClusteredOracle struct {
	baseWatts float64
	models    []*power.Model
	tables    []*soc.OPPTable
	counts    []int
	headroom  float64

	// targets and online back the decision's slices, reused across
	// samples.
	targets []soc.Hz
	online  []int
}

var _ policy.Manager = (*ClusteredOracle)(nil)

// NewClusteredOracleForPlatform builds the oracle from a platform profile,
// pricing each frequency domain with the platform's shared calibrated
// model. headroom inflates measured demand to leave room for growth
// between samples (e.g. 0.15 for 15%).
func NewClusteredOracleForPlatform(plat platform.Platform, headroom float64) (*ClusteredOracle, error) {
	if headroom < 0 || headroom > 1 {
		return nil, errors.New("core: oracle headroom must be in [0,1]")
	}
	comp, err := plat.Compiled()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	o := &ClusteredOracle{
		baseWatts: comp.BaseWatts,
		models:    comp.Models,
		tables:    comp.Tables,
		counts:    make([]int, len(comp.Specs)),
		headroom:  headroom,
	}
	for ci, cs := range comp.Specs {
		o.counts[ci] = cs.NumCores
	}
	return o, nil
}

// Name implements policy.Manager.
func (o *ClusteredOracle) Name() string { return "oracle" }

// Decide implements policy.Manager. The decision's slices are the
// oracle's own buffers, valid until the next Decide.
func (o *ClusteredOracle) Decide(in policy.Input) (policy.Decision, error) {
	if err := in.Validate(); err != nil {
		return policy.Decision{}, err
	}
	views := in.Clusters
	if len(views) != len(o.models) {
		return policy.Decision{}, fmt.Errorf("core: cluster oracle built for %d domains, input has %d",
			len(o.models), len(views))
	}
	var demand float64
	for i := range in.Util {
		if in.Online[i] {
			demand += in.Util[i] * float64(in.CurFreq[i])
		}
	}
	demand *= 1 + o.headroom
	choice, _, err := ChooseClusterOperatingPoints(o.baseWatts, o.models, o.tables, o.counts, demand)
	if err != nil {
		return policy.Decision{}, err
	}
	o.targets = policy.Resize(o.targets, len(in.Util))
	o.online = policy.Resize(o.online, len(views))
	for ci, v := range views {
		o.online[ci] = choice[ci].Cores
		f := choice[ci].OPP.Freq
		if choice[ci].Cores == 0 {
			f = v.Table.Min().Freq // parked domain clocks at its floor
		}
		for _, id := range v.CoreIDs {
			o.targets[id] = f
		}
	}
	return policy.Decision{TargetFreq: o.targets, OnlineVec: o.online, Quota: 1}, nil
}

// Reset implements policy.Manager.
func (o *ClusteredOracle) Reset() {}
