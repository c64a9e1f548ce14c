// Package policy defines the unified CPU-management interface the simulator
// drives. The thesis' central observation is that DVFS (governors) and DCS
// (hotplug) "are neither unified nor coordinated in the real implementation
// as they both have two different interfaces" (§1.1). This package is that
// pair of interfaces joined into one: a Manager decides frequency, online
// cores, and CPU bandwidth quota in a single step. Stock Android behaviour
// is recovered by composing per-domain cpufreq.Governors with a
// hotplug.Policy (Compose); MobiCore implements Manager natively in
// internal/core.
package policy

import (
	"errors"
	"fmt"
	"time"

	"mobicore/internal/cpufreq"
	"mobicore/internal/hotplug"
	"mobicore/internal/soc"
)

// ClusterView describes one frequency domain of the platform as a Manager
// sees it: the domain's OPP table and the core ids it owns, one ascending
// run of consecutive ids (as platform.Compiled numbers them). A
// homogeneous SoC is one view covering every core.
type ClusterView struct {
	Name    string
	Table   *soc.OPPTable
	CoreIDs []int
}

// ThermalSignal is one frequency domain's thermal-pressure view: where its
// zone sits relative to its trip point and what cap, if any, the thermal
// driver currently enforces. Managers use it to avoid decisions the
// thermal driver would immediately claw back — e.g. waking a big cluster
// whose zone is already above trip.
type ThermalSignal struct {
	// TempC is the zone's current temperature.
	TempC float64
	// HeadroomC is the margin to the trip point in °C: positive while
	// cool, negative above trip, +Inf when the zone's throttle is
	// disabled.
	HeadroomC float64
	// Throttling reports whether the zone's frequency cap is engaged.
	Throttling bool
	// CapFreq is the highest frequency the thermal driver currently
	// allows on the domain's own ladder.
	CapFreq soc.Hz
}

// Input is the unified observation a Manager receives every sampling
// period. Slices are indexed by core id and are read-only: Online and
// CurFreq are the simulated CPU's own state, not copies. They are also
// only valid for the duration of the Decide call: the engine refills its
// pooled slices between samples and applies each decision to the CPU
// they view, so a manager that needs history must copy values out (see
// core/mobicore.go for the scalar-retention idiom).
type Input struct {
	// Now is the simulation time; Period the time since the last sample.
	Now    time.Duration
	Period time.Duration
	// Util is per-core busy fraction over the period in [0,1]; offline
	// cores carry 0.
	Util []float64
	// Online flags each core's hotplug state.
	Online []bool
	// CurFreq is each core's programmed frequency.
	CurFreq []soc.Hz
	// Quota is the currently programmed global CPU bandwidth in (0,1].
	Quota float64
	// Clusters lists the platform's frequency domains in cluster order;
	// required. A homogeneous SoC is one domain covering every core.
	Clusters []ClusterView
	// Thermal lists per-domain thermal pressure, indexed like Clusters.
	// Nil means no thermal telemetry is available (managers must then
	// assume unbounded headroom).
	Thermal []ThermalSignal
}

// Resize returns b with length n and every entry zeroed, reusing b's
// backing array when it is large enough: the per-sample buffers a
// manager keeps across Decide calls grow once and are then reused.
func Resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// span returns the half-open range of core ids the view owns; Validate
// has checked they are one ascending run.
func (v ClusterView) span() (lo, hi int) {
	if len(v.CoreIDs) == 0 {
		return 0, 0
	}
	return v.CoreIDs[0], v.CoreIDs[0] + len(v.CoreIDs)
}

// Validate rejects malformed inputs.
func (in Input) Validate() error {
	if len(in.Clusters) == 0 {
		return errors.New("policy: input has no cluster views")
	}
	n := len(in.Util)
	if n == 0 || len(in.Online) != n || len(in.CurFreq) != n {
		return fmt.Errorf("policy: inconsistent input lengths util=%d online=%d freq=%d",
			len(in.Util), len(in.Online), len(in.CurFreq))
	}
	for ci, v := range in.Clusters {
		if v.Table == nil || v.Table.Len() == 0 {
			return fmt.Errorf("policy: cluster %d missing OPP table", ci)
		}
		for j, id := range v.CoreIDs {
			if id < 0 || id >= n {
				return fmt.Errorf("policy: cluster %d core id %d outside [0,%d)", ci, id, n)
			}
			if j > 0 && id != v.CoreIDs[j-1]+1 {
				return fmt.Errorf("policy: cluster %d core ids %v are not one ascending run", ci, v.CoreIDs)
			}
		}
	}
	if in.Quota <= 0 || in.Quota > 1 {
		return fmt.Errorf("policy: quota %v outside (0,1]", in.Quota)
	}
	for i, u := range in.Util {
		if u < 0 || u > 1 {
			return fmt.Errorf("policy: core %d utilization %v outside [0,1]", i, u)
		}
	}
	if in.Thermal != nil {
		if len(in.Thermal) != len(in.Clusters) {
			return fmt.Errorf("policy: %d thermal signals for %d domains", len(in.Thermal), len(in.Clusters))
		}
		for ci, ts := range in.Thermal {
			// Every zone cap names an operating point, so CapFreq == 0 can
			// only mean the entry was never filled in — reject it loudly
			// rather than letting a zero-valued signal (headroom 0) read
			// as "thermally pressured" and silently park big clusters.
			if ts.CapFreq == 0 {
				return fmt.Errorf("policy: thermal signal for domain %d is unfilled (zero CapFreq)", ci)
			}
		}
	}
	return nil
}

// OverallUtil averages utilization over online cores (§2.2's definition).
func (in Input) OverallUtil() float64 {
	sum, n := 0.0, 0
	for i, u := range in.Util {
		if in.Online[i] {
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Decision is a Manager's complete resource allocation for the next period.
// Its slices may alias the manager's own buffers: they are valid until the
// manager's next Decide, so a caller that keeps them must copy them.
type Decision struct {
	// TargetFreq is the desired frequency per core id; entries for cores
	// that end up offline are ignored. Each frequency must be an
	// operating point of the owning cluster's table.
	TargetFreq []soc.Hz
	// OnlineCores is the desired number of online cores in [1, numCores],
	// applied lowest-id first. Ignored when OnlineVec is set.
	OnlineCores int
	// OnlineVec is the desired online-core count per cluster, indexed
	// like Input.Clusters. A cluster entry may be 0 (the whole domain
	// parked) as long as the vector sums to at least one core. Nil means
	// use the flat OnlineCores.
	OnlineVec []int
	// Quota is the CPU bandwidth for the next period in (0,1].
	Quota float64
}

// Validate checks a decision against the platform's frequency domains:
// every per-core target must be an operating point of the owning
// cluster's table, and the online allocation (flat or per-cluster) must
// keep at least one core up.
func (d Decision) Validate(views []ClusterView, numCores int) error {
	if len(views) == 0 {
		return errors.New("policy: no cluster views to validate against")
	}
	if len(d.TargetFreq) != numCores {
		return fmt.Errorf("policy: decision has %d frequencies for %d cores", len(d.TargetFreq), numCores)
	}
	for ci, v := range views {
		if v.Table == nil || v.Table.Len() == 0 {
			return fmt.Errorf("policy: cluster %d has no OPP table", ci)
		}
		for _, id := range v.CoreIDs {
			if id < 0 || id >= numCores {
				return fmt.Errorf("policy: cluster %s core id %d outside [0,%d)", v.Name, id, numCores)
			}
			if !v.Table.Contains(d.TargetFreq[id]) {
				return fmt.Errorf("policy: core %d target %v is not an operating point of cluster %s",
					id, d.TargetFreq[id], v.Name)
			}
		}
	}
	if d.OnlineVec != nil {
		if len(d.OnlineVec) != len(views) {
			return fmt.Errorf("policy: online vector has %d entries for %d clusters", len(d.OnlineVec), len(views))
		}
		total := 0
		for ci, n := range d.OnlineVec {
			if n < 0 || n > len(views[ci].CoreIDs) {
				return fmt.Errorf("policy: cluster %s online target %d outside [0,%d]",
					views[ci].Name, n, len(views[ci].CoreIDs))
			}
			total += n
		}
		if total < 1 {
			return errors.New("policy: online vector parks every core")
		}
	} else if d.OnlineCores < 1 || d.OnlineCores > numCores {
		return fmt.Errorf("policy: online core target %d outside [1,%d]", d.OnlineCores, numCores)
	}
	if d.Quota <= 0 || d.Quota > 1 {
		return fmt.Errorf("policy: quota %v outside (0,1]", d.Quota)
	}
	return nil
}

// Manager is a complete CPU management policy: one decision covering DVFS,
// DCS, and bandwidth. Implementations must be deterministic.
type Manager interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide maps one observation to one allocation.
	Decide(in Input) (Decision, error)
	// Reset clears internal state between runs.
	Reset()
}

// Composite adapts per-domain governors and a hotplug policy into a
// Manager — the stock Android arrangement where the two mechanisms run
// independently. Each frequency domain is an independent cpufreq policy
// domain with its own governor instance, as Linux runs one governor per
// policy; hotplug is global. Neither mechanism sees the other's decision,
// reproducing the lack of coordination the thesis criticizes. Quota is
// always 1: stock Android leaves bandwidth alone.
type Composite struct {
	name string
	govs []cpufreq.Governor // one per frequency domain, in cluster order
	plug hotplug.Policy

	out []soc.Hz // per-core targets, gathered from each domain's governor
}

var _ Manager = (*Composite)(nil)

// Compose builds a Composite manager from one governor per frequency
// domain, in cluster order, and a global hotplug policy. The Composite
// keeps govs. It is named after the first governor and the hotplug
// policy.
func Compose(govs []cpufreq.Governor, plug hotplug.Policy) (*Composite, error) {
	if len(govs) == 0 || plug == nil {
		return nil, errors.New("policy: Compose requires a governor per domain and a hotplug policy")
	}
	for i, g := range govs {
		if g == nil {
			return nil, fmt.Errorf("policy: Compose: nil governor for domain %d", i)
		}
	}
	return &Composite{
		name: govs[0].Name() + "+" + plug.Name(),
		govs: govs,
		plug: plug,
	}, nil
}

// Name implements Manager.
func (c *Composite) Name() string { return c.name }

// Decide implements Manager: hotplug and the governors each act on the
// same observation without coordination. Each domain's governor sees only
// its own cores and table: a domain's cores are one run of ids, so its
// governor reads the input's sub-slices directly.
func (c *Composite) Decide(in Input) (Decision, error) {
	if err := in.Validate(); err != nil {
		return Decision{}, err
	}
	if len(in.Clusters) != len(c.govs) {
		return Decision{}, fmt.Errorf("policy: %s built for %d clusters, input has %d",
			c.name, len(c.govs), len(in.Clusters))
	}
	cores, err := c.plug.TargetCores(hotplug.Input{Now: in.Now, Util: in.Util, Online: in.Online})
	if err != nil {
		return Decision{}, fmt.Errorf("policy: hotplug %s: %w", c.plug.Name(), err)
	}
	c.out = Resize(c.out, len(in.Util))
	for ci, v := range in.Clusters {
		lo, hi := v.span()
		freqs, err := c.govs[ci].Target(cpufreq.Input{
			Now:     in.Now,
			Period:  in.Period,
			Util:    in.Util[lo:hi],
			Online:  in.Online[lo:hi],
			CurFreq: in.CurFreq[lo:hi],
			Table:   v.Table,
		})
		if err != nil {
			return Decision{}, fmt.Errorf("policy: governor %s (cluster %s): %w", c.govs[ci].Name(), v.Name, err)
		}
		copy(c.out[lo:hi], freqs)
	}
	return Decision{TargetFreq: c.out, OnlineCores: cores, Quota: 1}, nil
}

// Reset implements Manager.
func (c *Composite) Reset() {
	for _, g := range c.govs {
		g.Reset()
	}
	c.plug.Reset()
}

// AndroidDefault builds the baseline the thesis evaluates against on a
// one-domain SoC: the ondemand governor combined with the default
// load-threshold hotplug (mpdecision disabled so DCS can act, §3.1/§6).
func AndroidDefault(table *soc.OPPTable) (*Composite, error) {
	gov, err := cpufreq.New("ondemand", table)
	if err != nil {
		return nil, err
	}
	plug, err := hotplug.NewLoad(hotplug.DefaultLoadTunables())
	if err != nil {
		return nil, err
	}
	return Compose([]cpufreq.Governor{gov}, plug)
}

// Pinned builds a one-domain manager that fixes both the frequency and the
// online core count — the measurement configuration of Figures 3–7
// (userspace governor plus a fixed hotplug).
func Pinned(table *soc.OPPTable, freq soc.Hz, cores int) (*Composite, error) {
	gov, err := cpufreq.NewUserspace(table)
	if err != nil {
		return nil, err
	}
	if err := gov.SetSpeed(freq); err != nil {
		return nil, err
	}
	plug, err := hotplug.NewFixed(cores)
	if err != nil {
		return nil, err
	}
	return Compose([]cpufreq.Governor{gov}, plug)
}
