package platform

import (
	"fmt"
	"sync"

	"mobicore/internal/em"
	"mobicore/internal/power"
	"mobicore/internal/soc"
	"mobicore/internal/thermal"
)

// Compiled is the immutable, shareable precompute of one platform profile:
// everything session construction used to rebuild per cell that is in fact
// static per platform — the resolved cluster specs, the per-cluster power
// models with their per-OPP leak tables, the kernel-EM-style energy model,
// the thermal-zone parameter set, the core→cluster mapping, and the boot
// frequency ladder. A Compiled is built once per process per distinct
// profile (see Platform.Compiled) and then shared by every session and
// fleet worker concurrently: all fields are read-only after construction,
// and the shared *power.Model / *em.Model values are documented
// concurrent-safe. Mutable per-session state (power.SystemModel scratch,
// thermal.Network zones, the soc.CPU) is still constructed per Sim — but
// from these shared parts, which is cheap.
type Compiled struct {
	// Platform is the exact profile this precompute was built from; the
	// cache compares against it to tell same-name variants (for example
	// WithoutThrottle copies) apart.
	Platform Platform

	// Specs is the resolved ClusterSpecs() view: one entry per frequency
	// domain, with the homogeneous single-cluster synthesis applied.
	Specs []ClusterSpec
	// ClusterCoreIDs lists each cluster's core ids in cluster order;
	// CoreCluster is the inverse map (core id → cluster index). Both are
	// shared — callers must not mutate them.
	ClusterCoreIDs [][]int
	CoreCluster    []int
	// BootFreqs is each cluster's boot operating point (its ladder top —
	// where the kernel leaves a policy domain before a governor attaches).
	BootFreqs []soc.Hz
	// ClusterFmaxHz is each cluster's ladder top as a float, the
	// denominator of headroom-aware capacity scales.
	ClusterFmaxHz []float64
	// ThermalParams is each cluster's zone parameter set with the
	// inherit-from-platform default resolved; Tables is each cluster's OPP
	// ladder.
	ThermalParams []thermal.Params
	Tables        []*soc.OPPTable
	// Models holds the per-cluster power models (immutable, shared);
	// BaseWatts is the platform floor paid once per system.
	Models    []*power.Model
	BaseWatts float64
	// EM is the shared kernel-EM-style energy model (immutable,
	// concurrent-safe) consumed by EAS placement and the clustered
	// MobiCore gate.
	EM *em.Model
}

// Compile builds a platform's precompute from scratch, bypassing the
// process-wide cache. Most callers want Platform.Compiled instead.
func Compile(p Platform) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	specs := p.ClusterSpecs()
	c := &Compiled{
		Platform:       p,
		Specs:          specs,
		ClusterCoreIDs: make([][]int, len(specs)),
		CoreCluster:    make([]int, 0, p.NumCores),
		BootFreqs:      make([]soc.Hz, len(specs)),
		ClusterFmaxHz:  make([]float64, len(specs)),
		ThermalParams:  p.ClusterThermalParams(),
		Tables:         make([]*soc.OPPTable, len(specs)),
		Models:         make([]*power.Model, len(specs)),
		BaseWatts:      p.Power.BaseWatts,
	}
	next := 0
	domains := make([]em.DomainSpec, len(specs))
	for ci, cs := range specs {
		ids := make([]int, cs.NumCores)
		for i := range ids {
			ids[i] = next
			next++
			c.CoreCluster = append(c.CoreCluster, ci)
		}
		c.ClusterCoreIDs[ci] = ids
		c.BootFreqs[ci] = cs.Table.Max().Freq
		c.ClusterFmaxHz[ci] = float64(cs.Table.Max().Freq)
		c.Tables[ci] = cs.Table
		m, err := power.NewModel(cs.Power, cs.Table)
		if err != nil {
			return nil, fmt.Errorf("platform %s: cluster %s: %w", p.Name, cs.Name, err)
		}
		c.Models[ci] = m
		domains[ci] = em.DomainSpec{Name: cs.Name, CoreIDs: ids, Table: cs.Table, Params: cs.Power}
	}
	emod, err := em.New(domains)
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", p.Name, err)
	}
	c.EM = emod
	return c, nil
}

// compiledCache maps platform name → *compiledVariants. Profiles are keyed
// by name for the fast path, but a name can legitimately describe several
// distinct profiles in one process (WithoutThrottle clears trip points
// without renaming), so each entry holds every variant seen and lookups
// verify full profile equality before sharing.
var compiledCache sync.Map

type compiledVariants struct {
	mu       sync.RWMutex
	variants []*Compiled
}

// Compiled returns the process-wide shared precompute for the profile,
// building it on first use. Two calls with equal profiles return the same
// *Compiled; a same-name profile with different parameters (for example a
// WithoutThrottle copy) gets its own entry rather than a wrong shared one.
// Safe for concurrent use from any number of fleet workers. The warm path
// — cache hit on an already-compiled profile — allocates nothing.
//
//mobicore:hotpath
func (p Platform) Compiled() (*Compiled, error) {
	v, ok := compiledCache.Load(p.Name)
	if !ok {
		// First sighting of this name; LoadOrStore races benignly with
		// other first-sighters — exactly one variants entry survives.
		//mobilint:ignore hotalloc one variants entry per platform name per process
		v, _ = compiledCache.LoadOrStore(p.Name, &compiledVariants{})
	}
	entry := v.(*compiledVariants)

	entry.mu.RLock()
	for _, c := range entry.variants {
		if equalPlatform(c.Platform, p) {
			entry.mu.RUnlock()
			return c, nil
		}
	}
	entry.mu.RUnlock()

	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	// Another worker may have compiled the same variant while we did;
	// prefer the stored one so every session shares a single instance.
	for _, existing := range entry.variants {
		if equalPlatform(existing.Platform, p) {
			return existing, nil
		}
	}
	//mobilint:ignore hotalloc cold miss path — one append per distinct profile per process
	entry.variants = append(entry.variants, c)
	return c, nil
}

// equalPlatform reports whether two profiles are the same in every field
// the precompute depends on. Platform is not ==-comparable (table pointers
// and the cluster slice), so this walks the structure by hand: the power
// and thermal parameter structs are plain value types compared directly,
// and OPP tables compare by content because profile constructors build a
// fresh table on every call. Allocation-free by design — it runs on the
// cache's warm path for every session construction.
//
//mobicore:hotpath
func equalPlatform(a, b Platform) bool {
	if a.Name != b.Name || a.Year != b.Year || a.NumCores != b.NumCores ||
		a.Power != b.Power || a.Thermal != b.Thermal ||
		a.ThermalCoupling != b.ThermalCoupling ||
		len(a.Clusters) != len(b.Clusters) || !tableEqual(a.Table, b.Table) {
		return false
	}
	for i := range a.Clusters {
		ca, cb := &a.Clusters[i], &b.Clusters[i]
		if ca.Name != cb.Name || ca.NumCores != cb.NumCores ||
			ca.Power != cb.Power || ca.Thermal != cb.Thermal ||
			!tableEqual(ca.Table, cb.Table) {
			return false
		}
	}
	return true
}

// tableEqual compares two OPP ladders by pointer, then by content.
//
//mobicore:hotpath
func tableEqual(a, b *soc.OPPTable) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// NewCPU constructs a fresh soc.CPU on the compiled topology. The CPU is
// mutable per-session state with a single owner: the session that builds
// it reads and writes it from one goroutine and hands it to no one else
// (soc.CPU has no lock).
func (c *Compiled) NewCPU() (*soc.CPU, error) {
	clusters := make([]soc.Cluster, len(c.Specs))
	for i, cs := range c.Specs {
		clusters[i] = soc.Cluster{Name: cs.Name, NumCores: cs.NumCores, Table: cs.Table}
	}
	return soc.NewClusteredCPU(clusters)
}

// NewSystemModel builds a per-session system power model over the shared
// per-cluster models. The SystemModel's evaluation scratch makes it
// single-session; the cluster models behind it stay shared and immutable.
func (c *Compiled) NewSystemModel() (*power.SystemModel, error) {
	return power.NewSystemModel(c.BaseWatts, c.Models, c.CoreCluster)
}

// NewThermalNetwork builds a fresh per-session thermal network from the
// compiled zone parameters (zones integrate state, so they cannot be
// shared).
func (c *Compiled) NewThermalNetwork() (*thermal.Network, error) {
	net, err := thermal.NewNetwork(c.ThermalParams, c.Tables, c.Platform.ThermalCoupling)
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", c.Platform.Name, err)
	}
	return net, nil
}
