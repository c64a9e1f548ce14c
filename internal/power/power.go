// Package power implements the CPU energy model of §4.1 of the thesis:
//
//	P_total = P_base + P_cache(f) + Σ_cores [ P_dyn + P_static ]
//	P_dyn    = C_eff · f · V²   (scaled by the fraction of time busy)
//	P_static = leak(V)          (paid whenever a core's rail is up)
//
// The leakage curve is anchored to the paper's own measurement on the
// Nexus 5: 120 mW per idle core at f_max (1.2 V) and 47 mW at f_min (0.9 V)
// (§4.1.2). A pure P = I·V line cannot pass through both points, so we use
// leak(V) = k·V^γ with γ fitted to the two anchors, which is also the more
// physical shape (sub-threshold leakage grows super-linearly with V).
package power

import (
	"errors"
	"fmt"
	"math"

	"mobicore/internal/soc"
)

// Params describes one platform's power characteristics. The zero value is
// not useful; construct via a platform profile or fill every field.
type Params struct {
	// CeffFarads is the effective switched capacitance C_eff in P_dyn =
	// C_eff · f · V².
	CeffFarads float64

	// LeakCoeffWatts and LeakExponent define per-core static power
	// leak(V) = LeakCoeffWatts · V^LeakExponent for an online core.
	LeakCoeffWatts float64
	LeakExponent   float64

	// OfflineWatts is the residual draw of a power-gated (offline) core —
	// "almost nothing" per §2.1, but not exactly zero.
	OfflineWatts float64

	// IdleLeakFraction scales leakage for an online-but-idle core
	// relative to an active one. On the Nexus 5's per-core rails the
	// paper measures idle leakage at essentially the full static power
	// (the 120/47 mW anchors are idle cores — §4.1.2: "idling cores in
	// that configuration brings more power leakage as each core is a
	// source of leakage"), so the calibrated profile uses 1.0. A
	// shared-rail platform with retention states would sit well below 1;
	// §4.1.2 argues race-to-idle only pays off there. Zero means 1.0.
	IdleLeakFraction float64

	// CacheBaseWatts and CacheSlopeWatts model P_cache, the shared uncore
	// (L2, bus, memory interface). It burns CacheBaseWatts whenever any
	// core is busy plus CacheSlopeWatts scaled by the highest online
	// frequency relative to f_max, since the uncore clock follows the CPU.
	CacheBaseWatts  float64
	CacheSlopeWatts float64

	// BaseWatts is the platform floor: rails, PMIC, idle peripherals with
	// the screen off and airplane mode on (§3.1's measurement setup).
	BaseWatts float64
}

// Validate reports the first nonsensical field; a NaN or infinite field is
// nonsensical too.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CeffFarads", p.CeffFarads}, {"LeakCoeffWatts", p.LeakCoeffWatts}, {"LeakExponent", p.LeakExponent},
		{"OfflineWatts", p.OfflineWatts}, {"IdleLeakFraction", p.IdleLeakFraction},
		{"CacheBaseWatts", p.CacheBaseWatts}, {"CacheSlopeWatts", p.CacheSlopeWatts}, {"BaseWatts", p.BaseWatts},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("power: %s is %v, want a finite value", f.name, f.v)
		}
	}
	switch {
	case p.CeffFarads <= 0:
		return errors.New("power: CeffFarads must be positive")
	case p.LeakCoeffWatts <= 0:
		return errors.New("power: LeakCoeffWatts must be positive")
	case p.LeakExponent < 1:
		return errors.New("power: LeakExponent must be >= 1")
	case p.OfflineWatts < 0:
		return errors.New("power: OfflineWatts must be non-negative")
	case p.IdleLeakFraction < 0 || p.IdleLeakFraction > 1:
		return errors.New("power: IdleLeakFraction must be in [0,1] (0 means default 1.0)")
	case p.CacheBaseWatts < 0 || p.CacheSlopeWatts < 0:
		return errors.New("power: cache power terms must be non-negative")
	case p.BaseWatts < 0:
		return errors.New("power: BaseWatts must be non-negative")
	}
	return nil
}

// Model evaluates the energy model for one platform. Model is immutable and
// safe for concurrent use.
type Model struct {
	params Params
	table  *soc.OPPTable

	// leakAt precomputes LeakWatts at every table operating point, so the
	// per-tick CoreWatts path answers table OPPs without calling math.Pow.
	// leakAt[i] is computed by the exact expression LeakWatts evaluates, so
	// the cached value is bit-identical to the live one.
	leakAt []float64
	// fmaxHz caches the table's top frequency for the cache-power ratio.
	fmaxHz float64
}

// NewModel validates params and binds them to the platform's OPP table
// (needed to resolve f_max for the cache term).
func NewModel(params Params, table *soc.OPPTable) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if table == nil || table.Len() == 0 {
		return nil, soc.ErrEmptyTable
	}
	m := &Model{params: params, table: table, fmaxHz: float64(table.Max().Freq)}
	m.leakAt = make([]float64, table.Len())
	for i := range m.leakAt {
		m.leakAt[i] = m.LeakWatts(table.At(i).Volt)
	}
	return m, nil
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.params }

// LeakWatts returns per-core static power at supply voltage v.
//
//mobicore:hotpath
func (m *Model) LeakWatts(v soc.Volt) float64 {
	return m.params.LeakCoeffWatts * math.Pow(float64(v), m.params.LeakExponent)
}

// DynamicWatts returns per-core dynamic power at operating point opp with
// the core busy fraction util in [0,1] (Eq. 1: P_d ∝ C·f·V²).
//
//mobicore:hotpath
func (m *Model) DynamicWatts(opp soc.OPP, util float64) float64 {
	util = clamp01(util)
	return util * m.params.CeffFarads * float64(opp.Freq) * float64(opp.Volt) * float64(opp.Volt)
}

// CoreWatts returns the total draw of one core: leakage while the rail is
// up plus utilization-scaled dynamic power, or the gated floor when
// offline. A fully idle core pays IdleLeakFraction of the leakage; any
// active fraction pays in full (the rail must hold the operating voltage
// while instructions retire).
//
//mobicore:hotpath
func (m *Model) CoreWatts(state soc.CoreState, opp soc.OPP, util float64) float64 {
	if state == soc.StateOffline {
		return m.params.OfflineWatts
	}
	return m.onlineCoreWatts(state, opp, util, m.leakAtOPP(opp))
}

// onlineCoreWatts is CoreWatts for a core that is not offline, given its
// leakage at opp (leakAtOPP's value), so a caller that caches the leakage
// per core prices exactly what CoreWatts would.
//
//mobicore:hotpath
func (m *Model) onlineCoreWatts(state soc.CoreState, opp soc.OPP, util, leak float64) float64 {
	if state == soc.StateIdle && util == 0 {
		leak *= m.idleLeakFraction()
	}
	return leak + m.DynamicWatts(opp, util)
}

// leakAtOPP resolves an operating point's static power from the
// precomputed per-OPP table when the point matches a table entry exactly,
// falling back to the live curve for off-ladder points (a caller-supplied
// OPP with a nonstandard voltage). Table hits — the entire per-tick path —
// skip math.Pow.
//
//mobicore:hotpath
func (m *Model) leakAtOPP(opp soc.OPP) float64 {
	if i := m.table.IndexOf(opp.Freq); i >= 0 && m.table.At(i).Volt == opp.Volt {
		return m.leakAt[i]
	}
	return m.LeakWatts(opp.Volt)
}

func (m *Model) idleLeakFraction() float64 {
	if m.params.IdleLeakFraction == 0 {
		return 1.0
	}
	return m.params.IdleLeakFraction
}

// CacheWatts returns the shared uncore power. busyFrac is the fraction of
// the window during which at least one core was executing; topFreq is the
// highest frequency among online cores.
//
//mobicore:hotpath
func (m *Model) CacheWatts(busyFrac float64, topFreq soc.Hz) float64 {
	busyFrac = clamp01(busyFrac)
	fmax := m.fmaxHz
	ratio := 0.0
	if fmax > 0 {
		ratio = float64(topFreq) / fmax
	}
	return busyFrac * (m.params.CacheBaseWatts + m.params.CacheSlopeWatts*ratio)
}

// CoreLoad is one core's contribution to a system power evaluation.
type CoreLoad struct {
	State soc.CoreState
	OPP   soc.OPP
	Util  float64 // busy fraction in [0,1]
}

// SystemWatts evaluates Eq. 3/4: platform base + cache + per-core terms.
func (m *Model) SystemWatts(cores []CoreLoad) float64 {
	return m.params.BaseWatts + m.ClusterWatts(cores)
}

// ClusterWatts evaluates the per-cluster share of Eq. 3/4 — cache plus
// per-core terms, without the platform base. SystemModel sums this across
// clusters so the floor is paid once, not once per cluster.
//
//mobicore:hotpath
func (m *Model) ClusterWatts(cores []CoreLoad) float64 {
	total := 0.0
	anyBusy := 0.0
	var topFreq soc.Hz
	for _, c := range cores {
		total += m.CoreWatts(c.State, c.OPP, c.Util)
		if c.State != soc.StateOffline {
			if c.Util > anyBusy {
				anyBusy = c.Util
			}
			if c.OPP.Freq > topFreq {
				topFreq = c.OPP.Freq
			}
		}
	}
	total += m.CacheWatts(anyBusy, topFreq)
	return total
}

// PredictWatts answers the operating-point question of §4.2: the system
// power if n cores run at operating point opp serving a total demand of
// demandCyclesPerSec. Demand is spread evenly (the balanced-scheduler
// assumption of §3.2); per-core utilization clamps at 1.
func (m *Model) PredictWatts(n int, opp soc.OPP, demandCyclesPerSec float64, totalCores int) (float64, error) {
	return m.PredictWattsInto(nil, n, opp, demandCyclesPerSec, totalCores)
}

// PredictWattsInto is PredictWatts evaluating through the caller's CoreLoad
// buffer when it has the capacity, so a governor scanning many candidate
// operating points allocates nothing per evaluation. The buffer is scratch:
// every entry is rewritten and nothing is retained past the call. A nil or
// undersized buffer falls back to a fresh allocation, reproducing
// PredictWatts.
func (m *Model) PredictWattsInto(cores []CoreLoad, n int, opp soc.OPP, demandCyclesPerSec float64, totalCores int) (float64, error) {
	if n < 1 || n > totalCores {
		return 0, fmt.Errorf("power: core count %d outside [1,%d]", n, totalCores)
	}
	if demandCyclesPerSec < 0 {
		return 0, errors.New("power: negative demand")
	}
	util := demandCyclesPerSec / (float64(n) * float64(opp.Freq))
	util = clamp01(util)
	if cap(cores) < totalCores {
		cores = make([]CoreLoad, totalCores)
	}
	cores = cores[:totalCores]
	for i := 0; i < n; i++ {
		cores[i] = CoreLoad{State: soc.StateActive, OPP: opp, Util: util}
	}
	for i := n; i < totalCores; i++ {
		cores[i] = CoreLoad{State: soc.StateOffline}
	}
	return m.SystemWatts(cores), nil
}

// CapacityMet reports whether n cores at opp can serve the demand.
func CapacityMet(n int, opp soc.OPP, demandCyclesPerSec float64) bool {
	return float64(n)*float64(opp.Freq) >= demandCyclesPerSec
}

// FitLeak solves leak(V) = k·V^γ through two anchor measurements, as we do
// for the paper's (1.2 V, 120 mW) and (0.9 V, 47 mW) points.
func FitLeak(v1 soc.Volt, w1 float64, v2 soc.Volt, w2 float64) (coeff, exponent float64, err error) {
	if v1 <= 0 || v2 <= 0 || w1 <= 0 || w2 <= 0 {
		return 0, 0, errors.New("power: leak anchors must be positive")
	}
	if v1 == v2 {
		return 0, 0, errors.New("power: leak anchors need distinct voltages")
	}
	exponent = math.Log(w1/w2) / math.Log(float64(v1)/float64(v2))
	coeff = w1 / math.Pow(float64(v1), exponent)
	return coeff, exponent, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
