package power

import (
	"errors"
	"fmt"
	"math"

	"mobicore/internal/soc"
)

// SystemModel prices a whole SoC that may span several clusters with
// different silicon: each cluster has its own calibrated Model (C_eff,
// leakage curve, uncore), and the platform floor (rails, PMIC, idle
// peripherals) is paid exactly once. The homogeneous case is one cluster
// and reproduces Model.SystemWatts bit for bit. Evaluation reuses internal
// scratch buffers, so a SystemModel is not safe for concurrent use; each
// Sim owns its own instance.
type SystemModel struct {
	baseWatts   float64
	clusters    []*Model
	coreCluster []int // core id -> cluster index

	// per-call scratch for SystemWattsByCluster and SystemWatts (the
	// per-tick hot path): scratch holds each cluster's busiest-core
	// utilization, then the per-cluster output SystemWatts hands
	// SystemWattsByCluster.
	scratch []float64
	topFreq []soc.Hz

	// Per-core leakage cache: the operating point each core was last
	// priced at and its leakage there. A core's OPP moves only when it is
	// reprogrammed, so most ticks skip the ladder search in leakAtOPP.
	// Compared bit for bit, so any other OPP, an off-ladder voltage
	// included, is priced afresh.
	leak []leakEntry
}

// leakEntry is one core's cached leakage: watts at opp.
type leakEntry struct {
	opp   soc.OPP
	watts float64
}

// NewSystemModel binds per-cluster models to a core->cluster mapping.
// baseWatts is the platform floor shared by all clusters; the per-cluster
// Params.BaseWatts fields are ignored here (ClusterWatts excludes them) so
// a profile can reuse a single-cluster calibration unchanged.
func NewSystemModel(baseWatts float64, clusters []*Model, coreCluster []int) (*SystemModel, error) {
	if baseWatts < 0 {
		return nil, errors.New("power: base watts must be non-negative")
	}
	if len(clusters) == 0 {
		return nil, errors.New("power: system model needs at least one cluster model")
	}
	if len(coreCluster) == 0 {
		return nil, errors.New("power: system model needs at least one core")
	}
	for id, ci := range coreCluster {
		if ci < 0 || ci >= len(clusters) {
			return nil, fmt.Errorf("power: core %d mapped to cluster %d outside [0,%d)", id, ci, len(clusters))
		}
		if clusters[ci] == nil {
			return nil, fmt.Errorf("power: nil model for cluster %d", ci)
		}
	}
	cs := make([]*Model, len(clusters))
	copy(cs, clusters)
	cc := make([]int, len(coreCluster))
	copy(cc, coreCluster)
	m := &SystemModel{
		baseWatts:   baseWatts,
		clusters:    cs,
		coreCluster: cc,
		scratch:     make([]float64, 2*len(cs)),
		topFreq:     make([]soc.Hz, len(cs)),
		leak:        make([]leakEntry, len(cc)),
	}
	for id, ci := range cc {
		opp := cs[ci].table.Min()
		m.leak[id] = leakEntry{opp: opp, watts: cs[ci].leakAtOPP(opp)}
	}
	return m, nil
}

// NumCores returns the number of cores the model covers.
func (m *SystemModel) NumCores() int { return len(m.coreCluster) }

// Cluster returns the model of cluster ci, for policies that price one
// domain at a time.
func (m *SystemModel) Cluster(ci int) (*Model, error) {
	if ci < 0 || ci >= len(m.clusters) {
		return nil, fmt.Errorf("power: cluster %d outside [0,%d)", ci, len(m.clusters))
	}
	return m.clusters[ci], nil
}

// SystemWatts evaluates total SoC power for per-core loads indexed by core
// id: platform base + Σ_clusters (cache + per-core terms).
func (m *SystemModel) SystemWatts(loads []CoreLoad) float64 {
	base, per := m.SystemWattsByCluster(loads, m.scratch[len(m.clusters):])
	total := base
	for _, w := range per {
		total += w
	}
	return total
}

// SystemWattsByCluster evaluates the same sum as SystemWatts but keeps the
// terms separate: the platform floor and each cluster's share (per-core +
// cache terms, no floor), indexed like the cluster models. The per-cluster
// thermal network integrates these shares into its zones; summing
// base + Σ perCluster reproduces SystemWatts bit for bit. perCluster is
// reused as the output buffer when it has the right length (the per-tick
// hot path allocates nothing).
//
//mobicore:hotpath
func (m *SystemModel) SystemWattsByCluster(loads []CoreLoad, perCluster []float64) (base float64, out []float64) {
	if len(perCluster) != len(m.clusters) {
		//mobilint:ignore defensive resize for short buffers; the sim tick always passes a full-size one
		perCluster = make([]float64, len(m.clusters))
	}
	// Single pass over cores with per-cluster accumulators; the per-core
	// and cache terms stay behind Model.CoreWatts (onlineCoreWatts with the
	// cached leakage) and CacheWatts, so a one-cluster SoC sums exactly as
	// Model.ClusterWatts does: cores in id order, then the cache.
	anyBusy, topFreq := m.scratch[:len(m.clusters)], m.topFreq
	for i := range perCluster {
		perCluster[i] = 0
		anyBusy[i] = 0
		topFreq[i] = 0
	}
	for id, ci := range m.coreCluster {
		if id >= len(loads) {
			break
		}
		c, cm := loads[id], m.clusters[ci]
		if c.State == soc.StateOffline {
			perCluster[ci] += cm.CoreWatts(c.State, c.OPP, c.Util)
		} else {
			k := &m.leak[id]
			if c.OPP.Freq != k.opp.Freq || math.Float64bits(float64(c.OPP.Volt)) != math.Float64bits(float64(k.opp.Volt)) {
				k.opp, k.watts = c.OPP, cm.leakAtOPP(c.OPP)
			}
			perCluster[ci] += cm.onlineCoreWatts(c.State, c.OPP, c.Util, k.watts)
			if c.Util > anyBusy[ci] {
				anyBusy[ci] = c.Util
			}
			if c.OPP.Freq > topFreq[ci] {
				topFreq[ci] = c.OPP.Freq
			}
		}
	}
	for ci, cm := range m.clusters {
		perCluster[ci] += cm.CacheWatts(anyBusy[ci], topFreq[ci])
	}
	return m.baseWatts, perCluster
}
