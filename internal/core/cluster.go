package core

import (
	"errors"
	"fmt"
	"math"

	"mobicore/internal/em"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// Domain describes one frequency domain for the clustered MobiCore
// manager: the cluster's OPP table and, optionally, its calibrated power
// model (enabling the §4.2 energy-model search within the domain).
type Domain struct {
	Name  string
	Table *soc.OPPTable
	Model *power.Model
}

// ClusterTunables govern the big-cluster gate of the clustered manager —
// the energy-aware placement rule that keeps demand on the efficiency
// (LITTLE) cluster until load or latency justifies waking big cores.
type ClusterTunables struct {
	// BigWake wakes a big cluster when the LITTLE cluster's served demand
	// exceeds this fraction of its full-ladder capacity — the cluster is
	// near its ceiling and the next burst would saturate it.
	BigWake float64
	// BigPark parks a big cluster when the SoC's total served demand
	// would fit under this fraction of LITTLE capacity — comfortably
	// below BigWake so the gate has hysteresis and does not flap.
	BigPark float64
}

// DefaultClusterTunables mirror the load-hotplug thresholds: wake at 80%
// of LITTLE capacity, park once everything fits in half of it.
func DefaultClusterTunables() ClusterTunables {
	return ClusterTunables{BigWake: 0.80, BigPark: 0.50}
}

// Validate rejects nonsensical cluster tunables.
func (t ClusterTunables) Validate() error {
	if t.BigWake <= 0 || t.BigWake > 1 {
		return errors.New("core: BigWake must be in (0,1]")
	}
	if t.BigPark < 0 || t.BigPark >= t.BigWake {
		return errors.New("core: BigPark must be in [0,BigWake)")
	}
	return nil
}

// Clustered is the MobiCore manager: one MobiCore engine per frequency
// domain, arbitrated by an energy-aware gate. The LITTLE cluster (lowest
// top frequency) always stays managed, while big clusters are gated by
// ClusterTunables — parked (all cores offline, domain clock at minimum)
// until the LITTLE cluster approaches its capacity or pegs a core, then
// handed to their own engine. This is the thesis' unified DVFS+DCS+
// bandwidth decision generalized to big.LITTLE; a homogeneous SoC is the
// one-domain case, where the gate never acts.
type Clustered struct {
	inner  []*MobiCore // one engine per domain, holding its table and model
	ctun   ClusterTunables
	little int // index of the most efficient domain (lowest f_max)

	// emod, when attached, lets the gate consult EM energy deltas: a
	// load-threshold wake is vetoed while serving the whole demand on the
	// LITTLE domain is both feasible and predicted cheaper than splitting
	// it with the big domain. Latency wakes (a pegged LITTLE core) are
	// never vetoed — §4.0's performance constraint outranks the model.
	emod *em.Model

	bigOn []bool // gate state per domain; hysteresis lives here

	// Per-sample buffers, grown on the first Decide and reused after it.
	// The decision's TargetFreq and OnlineVec alias targets and online.
	demand  []float64
	pegged  []bool
	targets []soc.Hz
	online  []int
}

var _ policy.Manager = (*Clustered)(nil)

// NewClustered builds the MobiCore manager over the given domains, in
// cluster order. Domains carrying a Model run the §4.2 energy-model search
// within their cluster; model-free domains fall back to the §5.2
// threshold rule.
func NewClustered(tun Tunables, ctun ClusterTunables, domains []Domain) (*Clustered, error) {
	if len(domains) == 0 {
		return nil, errors.New("core: NewClustered needs at least one domain")
	}
	if err := ctun.Validate(); err != nil {
		return nil, err
	}
	inner := make([]*MobiCore, len(domains))
	little := 0
	for i, d := range domains {
		if d.Table == nil || d.Table.Len() == 0 {
			return nil, fmt.Errorf("core: domain %d (%s): %w", i, d.Name, soc.ErrEmptyTable)
		}
		m, err := build(d.Table, tun, d.Model)
		if err != nil {
			return nil, fmt.Errorf("core: domain %s: %w", d.Name, err)
		}
		inner[i] = m
		if d.Table.Max().Freq < domains[little].Table.Max().Freq {
			little = i
		}
	}
	return &Clustered{
		inner:  inner,
		ctun:   ctun,
		little: little,
		bigOn:  make([]bool, len(domains)),
	}, nil
}

// NewClusteredForPlatform builds the MobiCore manager from a platform
// profile — the one construction path shared by the policy stacks,
// experiments, and benchmarks. withModel attaches each cluster's
// calibrated energy model for the §4.2 search plus the platform's EM
// energy model, which the big-cluster gate consults before a
// load-threshold wake. Both come from the platform's shared precompute,
// so building a manager per fleet cell builds no model.
func NewClusteredForPlatform(plat platform.Platform, tun Tunables, ctun ClusterTunables, withModel bool) (*Clustered, error) {
	comp, err := plat.Compiled()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	domains := make([]Domain, len(comp.Specs))
	for i, cs := range comp.Specs {
		domains[i] = Domain{Name: cs.Name, Table: cs.Table}
		if withModel {
			domains[i].Model = comp.Models[i]
		}
	}
	c, err := NewClustered(tun, ctun, domains)
	if err != nil {
		return nil, err
	}
	if withModel {
		if err := c.AttachEnergyModel(comp.EM); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// AttachEnergyModel installs an EM energy model on the clustered manager
// so the big-cluster gate prices wake decisions instead of relying on the
// load threshold alone. The model's domains must parallel the manager's.
func (c *Clustered) AttachEnergyModel(m *em.Model) error {
	if m == nil {
		return errors.New("core: nil energy model")
	}
	if m.NumDomains() != len(c.inner) {
		return fmt.Errorf("core: energy model has %d domains, manager has %d", m.NumDomains(), len(c.inner))
	}
	c.emod = m
	return nil
}

// Name implements policy.Manager.
func (c *Clustered) Name() string { return "mobicore" }

// Decide implements policy.Manager: gate the big clusters and run each
// awake domain's MobiCore pass over its own cores. The decision's
// slices are the manager's own buffers, valid until the next Decide.
//
//mobicore:hotpath
func (c *Clustered) Decide(in policy.Input) (policy.Decision, error) {
	if err := in.Validate(); err != nil {
		return policy.Decision{}, err
	}
	views := in.Clusters
	if len(views) != len(c.inner) {
		return policy.Decision{}, fmt.Errorf("core: clustered manager built for %d domains, input has %d",
			len(c.inner), len(views))
	}

	// Demand per domain (served cycles/sec) and peg detection drive the
	// gate; capacity is the domain's full ladder: every core at f_max.
	demand := policy.Resize(c.demand, len(views))
	pegged := policy.Resize(c.pegged, len(views))
	targets := policy.Resize(c.targets, len(in.Util))
	onlineVec := policy.Resize(c.online, len(views))
	c.demand, c.pegged, c.targets, c.online = demand, pegged, targets, onlineVec
	var totalDemand float64
	for ci, v := range views {
		for _, id := range v.CoreIDs {
			if !in.Online[id] {
				continue
			}
			demand[ci] += in.Util[id] * float64(in.CurFreq[id])
			if in.Util[id] >= c.inner[ci].tun.PegThreshold {
				pegged[ci] = true
			}
		}
		totalDemand += demand[ci]
	}
	littleCap := float64(len(views[c.little].CoreIDs)) * float64(c.inner[c.little].table.Max().Freq)

	quotaCores := 0.0 // Σ domain quota × domain cores: budget in core-units
	quota := 1.0      // the last awake domain's own quota
	for ci, v := range views {
		if ci != c.little && !c.gateBig(ci, demand[c.little], totalDemand, littleCap, pegged[c.little], domainHot(&in, ci)) {
			// Parked: whole domain offline, clock at the floor so a
			// later wake starts from the cheapest operating point. A
			// parked domain contributes nothing to the bandwidth
			// budget — its cores cannot execute anyway.
			fmin := c.inner[ci].table.Min().Freq
			for _, id := range v.CoreIDs {
				targets[id] = fmin
			}
			onlineVec[ci] = 0
			continue
		}
		cores, q := c.decideDomain(ci, v.CoreIDs, &in)
		onlineVec[ci] = cores
		quotaCores += q * float64(len(v.CoreIDs))
		quota = q
	}
	if len(views) > 1 {
		// Each domain's quota is a fraction of its own capacity, but the
		// sim's bandwidth pool is a fraction of the whole SoC (quota ×
		// n_total), so re-express the per-domain budgets in whole-SoC
		// units. Taking a max or min instead would let one domain's
		// slack erase another's throttle (or vice versa). A single
		// domain's quota already is the whole SoC's, and is kept exact:
		// q·n/n need not round back to q.
		quota = quotaCores / float64(len(in.Util))
	}
	if quota <= 0 || quota > 1 {
		quota = 1
	}
	return policy.Decision{
		TargetFreq: targets,
		OnlineVec:  onlineVec,
		Quota:      quota,
	}, nil
}

// gateBig decides whether big domain ci may run this period, updating the
// hysteresis state. Waking is justified by LITTLE-cluster pressure or a
// pegged LITTLE core (latency); parking requires the SoC's whole demand to
// fit comfortably back on LITTLE. A thermally pressured big domain (cap
// engaged or zone above trip) is never woken: the thermal driver would
// immediately clamp the fresh cores to the bottom of the ladder, so waking
// buys leakage and heat, not capacity — demand stays on the cool LITTLE
// cluster until the zone recovers. An already-running hot domain is left to
// its own MobiCore pass under the thermal clamp.
//
// With an EM energy model attached, a load-threshold wake is additionally
// priced: the gate estimates the system energy of serving the whole demand
// on the LITTLE domain against splitting it with domain ci, and keeps ci
// parked while LITTLE-only is feasible and predicted cheaper — the thesis'
// "the best one is chosen by our model" applied across clusters instead of
// within one. A pegged LITTLE core always wakes regardless of the model:
// latency outranks energy (§4.0).
func (c *Clustered) gateBig(ci int, littleDemand, totalDemand, littleCap float64, littlePegged, hot bool) bool {
	if littleCap <= 0 {
		return true
	}
	if c.bigOn[ci] {
		if totalDemand <= c.ctun.BigPark*littleCap && !littlePegged {
			c.bigOn[ci] = false
			c.inner[ci].Reset() // stale burst history must not leak into the next wake
		}
	} else {
		wake := (littleDemand >= c.ctun.BigWake*littleCap || littlePegged) && !hot
		if wake && !littlePegged && c.emod != nil && !c.emWakeWorthwhile(ci, totalDemand, littleCap) {
			wake = false
		}
		if wake {
			c.bigOn[ci] = true
		}
	}
	return c.bigOn[ci]
}

// emWakeWorthwhile prices a candidate wake of domain ci with the EM model
// against the whole currently awake set — LITTLE plus every other big
// domain whose gate is already open, not just a pairwise LITTLE-vs-ci
// split (on a 3-domain part an already-awake gold cluster must be allowed
// to absorb overflow before the prime core is priced in). True when the
// awake set cannot serve the whole demand (capacity necessity), or when
// adding ci — LITTLE held at its comfortable park ceiling so the overflow
// lands on the performance domains — is predicted cheaper than serving
// everything on the awake set alone.
func (c *Clustered) emWakeWorthwhile(ci int, totalDemand, littleCap float64) bool {
	baseW, remaining := c.priceAwake(ci, totalDemand, math.Inf(1))
	if remaining > 1e-9*totalDemand {
		return true // capacity necessity: the awake set cannot serve
	}
	withW, overflow := c.priceAwake(ci, totalDemand, c.ctun.BigPark*littleCap)
	if overflow <= 0 {
		return false // nothing would land on ci anyway
	}
	big := c.emod.Domain(ci)
	bw, bmet := big.WattsForDemand(overflow, big.NumCores())
	if !bmet {
		// ci cannot absorb the contemplated overflow: the split is
		// unrealizable, so an energy figure for it would be fiction.
		// Stay with the feasible status quo — a genuine throughput
		// shortfall still wakes ci through the pegged-core path.
		return false
	}
	return withW+bw < baseW
}

// priceAwake prices the awake domains — LITTLE plus every gated-open big
// domain except skip — serving demand, filling shares in efficiency order
// up to each domain's capacity (LITTLE's ceiling may be lowered via
// littleCeil, the gate's comfort point). Returns the predicted watts of
// the filled shares and the demand left unserved.
func (c *Clustered) priceAwake(skip int, demand, littleCeil float64) (watts, remaining float64) {
	remaining = demand
	for _, di := range c.emod.EfficiencyOrder() {
		if di == skip || (di != c.little && !c.bigOn[di]) {
			continue
		}
		dom := c.emod.Domain(di)
		cap := dom.Capacity() * float64(dom.NumCores())
		if di == c.little && littleCeil < cap {
			cap = littleCeil
		}
		share := remaining
		if share > cap {
			share = cap
		}
		if share < 0 {
			share = 0
		}
		w, _ := dom.WattsForDemand(share, dom.NumCores())
		watts += w
		remaining -= share
	}
	return watts, remaining
}

// domainHot reads the thermal-pressure signal for domain ci: true when its
// zone has a cap engaged or has exhausted its trip headroom. Inputs without
// thermal telemetry report cool (unbounded headroom).
func domainHot(in *policy.Input, ci int) bool {
	if ci >= len(in.Thermal) {
		return false
	}
	t := in.Thermal[ci]
	return t.Throttling || t.HeadroomC <= 0
}

// decideDomain runs domain ci's MobiCore pass over its cores ids, writing
// their targets into c.targets, and returns the domain's online-core count
// and quota.
//
//mobicore:hotpath
func (c *Clustered) decideDomain(ci int, ids []int, in *policy.Input) (cores int, quota float64) {
	for _, id := range ids {
		if in.Online[id] {
			return c.inner[ci].decide(in, ids, c.targets)
		}
	}
	// Freshly woken domain: no utilization history yet. Bring up one
	// core at the domain minimum and let the next sample steer it.
	fmin := c.inner[ci].table.Min().Freq
	for _, id := range ids {
		c.targets[id] = fmin
	}
	return 1, in.Quota
}

// Reset implements policy.Manager.
func (c *Clustered) Reset() {
	for i, m := range c.inner {
		m.Reset()
		c.bigOn[i] = false
	}
}
