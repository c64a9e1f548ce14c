// Package em is a kernel-EM-style energy model: one performance domain per
// frequency cluster, with capacity, cost-per-cycle, and energy-at-OPP tables
// precomputed at construction so every hot-path lookup is allocation-free.
//
// It mirrors the Linux Energy Model framework (kernel/power/energy_model.c)
// that EAS placement is built on: each domain publishes, per operating
// point, the power of one fully busy core and the derived energy cost of a
// cycle executed at that point. The Energy/Frequency Convexity Rule
// (arXiv:1401.4655) is why the tables are indexed by OPP rather than
// collapsed to a single per-domain figure — the energy-optimal operating
// point depends on the demanded rate, so a placement decision must price
// the OPP the governor would actually pick, not assume one.
package em

import (
	"errors"
	"fmt"
	"sort"

	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// DomainSpec declares one performance domain: a named cluster of identical
// cores with a private OPP ladder and power calibration.
type DomainSpec struct {
	Name    string
	CoreIDs []int
	Table   *soc.OPPTable
	Params  power.Params
}

// Domain is one immutable performance domain with its precomputed tables.
// All per-OPP slices are indexed like the domain's OPP table (ascending
// frequency).
type Domain struct {
	name    string
	coreIDs []int
	table   *soc.OPPTable
	model   *power.Model

	freqs          []float64 // operating frequency in Hz
	costPerCycle   []float64 // one fully busy core's watts / freq — joules per executed cycle
	uncorePerCycle []float64 // CacheWatts(busy, f) / f — the domain's uncore share
}

// Name returns the domain's cluster name.
func (d *Domain) Name() string { return d.name }

// CoreIDs returns the global core ids the domain owns. The slice is shared
// and must not be mutated.
func (d *Domain) CoreIDs() []int { return d.coreIDs }

// NumCores returns the number of cores in the domain.
func (d *Domain) NumCores() int { return len(d.coreIDs) }

// Table returns the domain's OPP ladder.
func (d *Domain) Table() *soc.OPPTable { return d.table }

// Model returns the domain's calibrated power model.
func (d *Domain) Model() *power.Model { return d.model }

// NumOPPs returns the number of operating points.
func (d *Domain) NumOPPs() int { return len(d.freqs) }

// FreqAt returns the frequency of operating point i in Hz.
func (d *Domain) FreqAt(i int) float64 { return d.freqs[i] }

// CostPerCycleAt returns the energy of one cycle executed at OPP i, in
// joules — the kernel EM "cost" column divided by frequency.
//
//mobicore:hotpath
func (d *Domain) CostPerCycleAt(i int) float64 { return d.costPerCycle[i] }

// UncorePerCycleAt returns the additional per-cycle cost of powering the
// domain's shared uncore (cache, bus) at OPP i. Placement charges it when
// the thread under decision would be the domain's only work — waking an
// idle cluster pays its uncore; joining an already-busy one does not.
//
//mobicore:hotpath
func (d *Domain) UncorePerCycleAt(i int) float64 { return d.uncorePerCycle[i] }

// Capacity returns the domain's per-core capacity: its top frequency in
// cycles per second.
func (d *Domain) Capacity() float64 { return d.freqs[len(d.freqs)-1] }

// OPPForRate returns the index of the lowest operating point whose
// frequency serves a per-core demand rate (cycles/sec) — the point a
// CPUFREQ_RELATION_L governor would pick. Rates above the ladder clamp to
// the top, and so does a NaN rate (sort.SearchFloat64s semantics: the
// predicate is false for every OPP). Allocation-free.
//
//mobicore:hotpath
func (d *Domain) OPPForRate(rate float64) int {
	// sort.SearchFloat64s inlined: the search closure costs a call per
	// probe, and placement prices an OPP per candidate domain per thread.
	lo, hi := 0, len(d.freqs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !(d.freqs[m] >= rate) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(d.freqs) {
		return len(d.freqs) - 1
	}
	return lo
}

// EnergyPerCycle returns the cost of one cycle executed at the OPP the
// governor would pick for a per-core rate — the EAS placement figure of
// merit. Allocation-free.
//
//mobicore:hotpath
func (d *Domain) EnergyPerCycle(rate float64) float64 {
	return d.costPerCycle[d.OPPForRate(rate)]
}

// WattsForDemand prices the domain serving demand (cycles/sec) spread
// evenly over n active cores at the lowest OPP that fits, including the
// domain's uncore term. met reports whether the domain's capacity covers
// the demand; when it does not, the domain is priced flat out. The
// platform floor is not included (it is paid once at platform level).
func (d *Domain) WattsForDemand(demand float64, n int) (watts float64, met bool) {
	if n < 1 {
		n = 1
	}
	if n > len(d.coreIDs) {
		n = len(d.coreIDs)
	}
	perCore := demand / float64(n)
	i := d.OPPForRate(perCore)
	opp := d.table.At(i)
	met = float64(n)*d.freqs[len(d.freqs)-1] >= demand
	util := perCore / d.freqs[i]
	if util > 1 {
		util = 1
	}
	watts = float64(n)*d.model.CoreWatts(soc.StateActive, opp, util) + d.model.CacheWatts(util, opp.Freq)
	return watts, met
}

// Model is the whole-SoC energy model: every performance domain plus the
// core-to-domain mapping. Immutable and safe for concurrent use.
type Model struct {
	domains    []Domain
	coreDomain []int // core id -> domain index
	effOrder   []int // domain indices by ascending capacity (efficient first)
	coreRank   []int // core id -> its domain's position in effOrder
}

// New validates the specs and precomputes every per-OPP table. Core ids
// must be non-negative and disjoint across domains.
func New(specs []DomainSpec) (*Model, error) {
	if len(specs) == 0 {
		return nil, errors.New("em: need at least one domain")
	}
	numCores := 0
	for _, s := range specs {
		for _, id := range s.CoreIDs {
			if id < 0 {
				return nil, fmt.Errorf("em: domain %s has negative core id %d", s.Name, id)
			}
			if id+1 > numCores {
				numCores = id + 1
			}
		}
	}
	m := &Model{
		domains:    make([]Domain, len(specs)),
		coreDomain: make([]int, numCores),
	}
	for i := range m.coreDomain {
		m.coreDomain[i] = -1
	}
	for di, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("em: domain %d needs a name", di)
		}
		if len(s.CoreIDs) == 0 {
			return nil, fmt.Errorf("em: domain %s owns no cores", s.Name)
		}
		pm, err := power.NewModel(s.Params, s.Table)
		if err != nil {
			return nil, fmt.Errorf("em: domain %s: %w", s.Name, err)
		}
		d := Domain{
			name:    s.Name,
			coreIDs: append([]int(nil), s.CoreIDs...),
			table:   s.Table,
			model:   pm,
		}
		n := s.Table.Len()
		d.freqs = make([]float64, n)
		d.costPerCycle = make([]float64, n)
		d.uncorePerCycle = make([]float64, n)
		for i := 0; i < n; i++ {
			opp := s.Table.At(i)
			d.freqs[i] = float64(opp.Freq)
			d.costPerCycle[i] = pm.CoreWatts(soc.StateActive, opp, 1) / d.freqs[i]
			d.uncorePerCycle[i] = pm.CacheWatts(1, opp.Freq) / d.freqs[i]
		}
		for _, id := range s.CoreIDs {
			if m.coreDomain[id] != -1 {
				return nil, fmt.Errorf("em: core %d claimed by two domains", id)
			}
			m.coreDomain[id] = di
		}
		m.domains[di] = d
	}
	for id, di := range m.coreDomain {
		if di == -1 {
			return nil, fmt.Errorf("em: core %d belongs to no domain", id)
		}
	}
	m.effOrder = make([]int, len(m.domains))
	for i := range m.effOrder {
		m.effOrder[i] = i
	}
	sort.SliceStable(m.effOrder, func(a, b int) bool {
		return m.domains[m.effOrder[a]].Capacity() < m.domains[m.effOrder[b]].Capacity()
	})
	m.coreRank = make([]int, numCores)
	for r, di := range m.effOrder {
		for _, id := range m.domains[di].coreIDs {
			m.coreRank[id] = r
		}
	}
	return m, nil
}

// NumDomains returns the number of performance domains.
func (m *Model) NumDomains() int { return len(m.domains) }

// NumCores returns the number of cores the model covers.
func (m *Model) NumCores() int { return len(m.coreDomain) }

// Domain returns performance domain di.
func (m *Model) Domain(di int) *Domain { return &m.domains[di] }

// DomainOf returns the domain index owning core id, or -1 for an unknown
// id.
//
//mobicore:hotpath
func (m *Model) DomainOf(id int) int {
	if id < 0 || id >= len(m.coreDomain) {
		return -1
	}
	return m.coreDomain[id]
}

// EfficiencyOrder returns the domain indices sorted by ascending capacity —
// the LITTLE-first walk order placement uses. The slice is shared and must
// not be mutated.
func (m *Model) EfficiencyOrder() []int { return m.effOrder }

// CoreRanks returns each core's efficiency rank: the position of its
// domain in EfficiencyOrder, indexed by core id. The slice is shared and
// must not be mutated.
func (m *Model) CoreRanks() []int { return m.coreRank }
