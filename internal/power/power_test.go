package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mobicore/internal/soc"
)

// nexus5Params mirrors the calibrated Nexus 5 profile without importing the
// platform package (which would create an import cycle in tests).
func nexus5Params(t *testing.T) Params {
	t.Helper()
	coeff, exp, err := FitLeak(1.2, 0.120, 0.9, 0.047)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		CeffFarads:      1.35e-10,
		LeakCoeffWatts:  coeff,
		LeakExponent:    exp,
		OfflineWatts:    0.002,
		CacheBaseWatts:  0.040,
		CacheSlopeWatts: 0.040,
		BaseWatts:       0.080,
	}
}

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(nexus5Params(t), soc.MSM8974Table())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	base := nexus5Params(t)
	mutations := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero ceff", func(p *Params) { p.CeffFarads = 0 }},
		{"negative leak", func(p *Params) { p.LeakCoeffWatts = -1 }},
		{"sub-linear leak exponent", func(p *Params) { p.LeakExponent = 0.5 }},
		{"negative offline", func(p *Params) { p.OfflineWatts = -0.1 }},
		{"negative cache", func(p *Params) { p.CacheBaseWatts = -0.1 }},
		{"negative base", func(p *Params) { p.BaseWatts = -0.1 }},
	}
	// NaN fails every range comparison and +Inf passes the lower bounds,
	// so either once validated and ran a session to a NaN or infinite
	// EnergyJ.
	fields := map[string]func(*Params) *float64{
		"ceff":          func(p *Params) *float64 { return &p.CeffFarads },
		"leak coeff":    func(p *Params) *float64 { return &p.LeakCoeffWatts },
		"leak exponent": func(p *Params) *float64 { return &p.LeakExponent },
		"offline":       func(p *Params) *float64 { return &p.OfflineWatts },
		"idle fraction": func(p *Params) *float64 { return &p.IdleLeakFraction },
		"cache base":    func(p *Params) *float64 { return &p.CacheBaseWatts },
		"cache slope":   func(p *Params) *float64 { return &p.CacheSlopeWatts },
		"base":          func(p *Params) *float64 { return &p.BaseWatts },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			mutations = append(mutations, struct {
				name   string
				mutate func(*Params)
			}{fmt.Sprintf("%s %v", name, v), func(p *Params) { *field(p) = v }})
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("calibrated params should validate: %v", err)
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// TestLeakAnchors is the §4.1.2 measurement: 120 mW per core at f_max,
// 47 mW at f_min.
func TestLeakAnchors(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	if got := m.LeakWatts(table.Max().Volt); math.Abs(got-0.120) > 1e-9 {
		t.Errorf("leak at f_max voltage = %.4f W, want 0.120 (paper anchor)", got)
	}
	if got := m.LeakWatts(table.Min().Volt); math.Abs(got-0.047) > 1e-9 {
		t.Errorf("leak at f_min voltage = %.4f W, want 0.047 (paper anchor)", got)
	}
}

// TestFullBlastAnchor checks the §1.2 absolute: 4 cores at 100% and f_max
// draw ≈ 2.40 W on the Nexus 5 profile.
func TestFullBlastAnchor(t *testing.T) {
	m := newModel(t)
	opp := soc.MSM8974Table().Max()
	loads := make([]CoreLoad, 4)
	for i := range loads {
		loads[i] = CoreLoad{State: soc.StateActive, OPP: opp, Util: 1}
	}
	got := m.SystemWatts(loads)
	if math.Abs(got-2.404) > 0.05 {
		t.Errorf("full blast = %.3f W, want ≈2.40 W (paper's 2403.82 mW)", got)
	}
}

func TestFitLeak(t *testing.T) {
	coeff, exp, err := FitLeak(1.2, 0.120, 0.9, 0.047)
	if err != nil {
		t.Fatal(err)
	}
	if exp < 3.0 || exp > 3.5 {
		t.Errorf("fitted exponent = %.3f, expected ≈3.26", exp)
	}
	if got := coeff * math.Pow(1.2, exp); math.Abs(got-0.120) > 1e-12 {
		t.Errorf("anchor 1 reproduces %.6f, want 0.120", got)
	}
	bad := []struct{ v1, w1, v2, w2 float64 }{
		{0, 0.1, 0.9, 0.05},
		{1.2, 0, 0.9, 0.05},
		{1.2, 0.1, 1.2, 0.05},
		{1.2, 0.1, -0.9, 0.05},
	}
	for _, b := range bad {
		if _, _, err := FitLeak(soc.Volt(b.v1), b.w1, soc.Volt(b.v2), b.w2); err == nil {
			t.Errorf("FitLeak(%v) should fail", b)
		}
	}
}

// TestPowerMonotoneInFrequency: at fixed utilization, a higher OPP never
// draws less power (the Fig. 3 ordering).
func TestPowerMonotoneInFrequency(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	for _, util := range []float64{0, 0.1, 0.5, 1.0} {
		prev := -1.0
		for _, opp := range table.Points() {
			got := m.CoreWatts(soc.StateActive, opp, util)
			if got < prev {
				t.Errorf("util %.1f: power decreased from %.4f to %.4f at %v", util, prev, got, opp.Freq)
			}
			prev = got
		}
	}
}

// TestPowerMonotoneInUtilization: at a fixed OPP, more utilization never
// draws less power.
func TestPowerMonotoneInUtilization(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	prop := func(rawU1, rawU2 uint16, oppIdx uint8) bool {
		u1 := float64(rawU1) / math.MaxUint16
		u2 := float64(rawU2) / math.MaxUint16
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		opp := table.At(int(oppIdx) % table.Len())
		return m.CoreWatts(soc.StateActive, opp, u1) <= m.CoreWatts(soc.StateActive, opp, u2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// TestOfflineCheaperThanIdle encodes the §4.1.2 argument for off-lining
// over race-to-idle: an offline core must always beat an idle one.
func TestOfflineCheaperThanIdle(t *testing.T) {
	m := newModel(t)
	for _, opp := range soc.MSM8974Table().Points() {
		idle := m.CoreWatts(soc.StateIdle, opp, 0)
		off := m.CoreWatts(soc.StateOffline, opp, 0)
		if off >= idle {
			t.Errorf("at %v offline (%.4f W) not cheaper than idle (%.4f W)", opp.Freq, off, idle)
		}
	}
}

// TestIdleLeakFraction: per-core-rail platforms (fraction unset → 1.0) pay
// full leakage when idle — the paper's 120 mW measurement — while
// shared-rail platforms discount it.
func TestIdleLeakFraction(t *testing.T) {
	table := soc.MSM8974Table()
	opp := table.Max()

	perRail := newModel(t)
	if got, want := perRail.CoreWatts(soc.StateIdle, opp, 0), perRail.LeakWatts(opp.Volt); math.Abs(got-want) > 1e-12 {
		t.Errorf("per-core rail idle = %v, want full leak %v", got, want)
	}

	params := nexus5Params(t)
	params.IdleLeakFraction = 0.3
	shared, err := NewModel(params, table)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shared.CoreWatts(soc.StateIdle, opp, 0), 0.3*shared.LeakWatts(opp.Volt); math.Abs(got-want) > 1e-12 {
		t.Errorf("shared rail idle = %v, want %v", got, want)
	}
	// An active core pays full leakage regardless of the fraction.
	if got, want := shared.CoreWatts(soc.StateActive, opp, 0.5),
		shared.LeakWatts(opp.Volt)+shared.DynamicWatts(opp, 0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("active core = %v, want %v", got, want)
	}
	params.IdleLeakFraction = 1.5
	if err := params.Validate(); err == nil {
		t.Error("IdleLeakFraction above 1 accepted")
	}
}

func TestSystemWattsNonNegativeProperty(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	prop := func(states [4]uint8, utils [4]uint16, opps [4]uint8) bool {
		loads := make([]CoreLoad, 4)
		for i := range loads {
			st := soc.CoreState(int(states[i])%3 + 1)
			loads[i] = CoreLoad{
				State: st,
				OPP:   table.At(int(opps[i]) % table.Len()),
				Util:  float64(utils[i]) / math.MaxUint16,
			}
		}
		watts := m.SystemWatts(loads)
		return watts >= m.Params().BaseWatts && !math.IsNaN(watts) && !math.IsInf(watts, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestPredictWatts(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	opp := table.At(5) // 960 MHz
	// Demand of half one core's capacity: util 0.5 on one core.
	w1, err := m.PredictWatts(1, opp, float64(opp.Freq)/2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SystemWatts([]CoreLoad{
		{State: soc.StateActive, OPP: opp, Util: 0.5},
		{State: soc.StateOffline},
		{State: soc.StateOffline},
		{State: soc.StateOffline},
	})
	if math.Abs(w1-want) > 1e-12 {
		t.Errorf("PredictWatts = %.6f, want %.6f", w1, want)
	}
	if _, err := m.PredictWatts(0, opp, 1e9, 4); err == nil {
		t.Error("PredictWatts with 0 cores should fail")
	}
	if _, err := m.PredictWatts(5, opp, 1e9, 4); err == nil {
		t.Error("PredictWatts with too many cores should fail")
	}
	if _, err := m.PredictWatts(1, opp, -1, 4); err == nil {
		t.Error("PredictWatts with negative demand should fail")
	}
}

// TestMoreCoresLowerFreqTradeoff reproduces the §4.2 trade-off structure:
// for a mid demand, the model must prefer neither always-one-core nor
// always-max-cores; specific crossovers depend on calibration, but spreading
// a high demand over more cores at lower frequency must beat one core at max
// frequency at equal capacity.
func TestMoreCoresLowerFreqTradeoff(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	fmax := table.Max()
	// Demand = exactly one core flat out.
	demand := float64(fmax.Freq)
	oneCore, err := m.PredictWatts(1, fmax, demand, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two cores at ~0.63·fmax (1497.6 MHz ×2 ≥ demand) — lower voltage.
	half := table.At(9)
	twoCores, err := m.PredictWatts(2, half, demand, 4)
	if err != nil {
		t.Fatal(err)
	}
	if twoCores >= oneCore {
		t.Errorf("2×%v (%.3f W) should beat 1×%v (%.3f W) at this demand (voltage quadratic advantage)",
			half.Freq, twoCores, fmax.Freq, oneCore)
	}
}

func TestCapacityMet(t *testing.T) {
	opp := soc.OPP{Freq: 1 * soc.GHz, Volt: 1.0}
	if !CapacityMet(2, opp, 2e9) {
		t.Error("2×1GHz should meet 2e9 cycles/s")
	}
	if CapacityMet(1, opp, 2e9) {
		t.Error("1×1GHz should not meet 2e9 cycles/s")
	}
}

// TestLeakTableMatchesLiveCurve: the per-OPP leak precompute must be
// bit-identical to the live LeakWatts curve at every ladder point — it is
// built by the exact same expression — and off-ladder operating points
// (table frequency at a nonstandard voltage) must fall back to the curve.
func TestLeakTableMatchesLiveCurve(t *testing.T) {
	m := newModel(t)
	table := soc.MSM8974Table()
	for i := 0; i < table.Len(); i++ {
		opp := table.At(i)
		got := m.leakAtOPP(opp)
		want := m.LeakWatts(opp.Volt)
		if got != want {
			t.Errorf("OPP %v: table leak %v != live %v", opp.Freq, got, want)
		}
	}
	// Off-ladder voltage at an on-ladder frequency must not hit the table.
	odd := soc.OPP{Freq: table.Max().Freq, Volt: table.Max().Volt + 0.01}
	if got, want := m.leakAtOPP(odd), m.LeakWatts(odd.Volt); got != want {
		t.Errorf("off-ladder point: %v != %v", got, want)
	}
	// CoreWatts through the table path equals the hand-assembled sum.
	for i := 0; i < table.Len(); i++ {
		opp := table.At(i)
		got := m.CoreWatts(soc.StateActive, opp, 0.5)
		want := m.LeakWatts(opp.Volt) + m.DynamicWatts(opp, 0.5)
		if got != want {
			t.Errorf("CoreWatts at %v: %v != leak+dyn %v", opp.Freq, got, want)
		}
	}
}

// TestSystemLeakCacheMatchesUncached drives a SystemModel through a long
// random sequence of per-core loads — ladder OPPs, off-ladder voltages,
// NaN voltages, offline, idle and busy cores, OPPs held across calls — and
// requires every per-cluster share to equal, bit for bit, the same sum
// assembled from Model.CoreWatts, which searches the ladder on every call.
// A one-cluster SoC must also price exactly as Model.ClusterWatts and
// Model.SystemWatts do.
func TestSystemLeakCacheMatchesUncached(t *testing.T) {
	little, big := soc.MSM8974Table(), soc.MustOPPTable([]soc.OPP{
		{Freq: 500 * soc.MHz, Volt: 0.7}, {Freq: 1500 * soc.MHz, Volt: 0.9}, {Freq: 2400 * soc.MHz, Volt: 1.1},
	})
	lm, err := NewModel(nexus5Params(t), little)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewModel(nexus5Params(t), big)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []struct {
		models      []*Model
		coreCluster []int
	}{
		{[]*Model{lm, bm}, []int{0, 0, 1, 1, 1}},
		{[]*Model{lm}, []int{0, 0, 0, 0}},
	} {
		models, coreCluster := topo.models, topo.coreCluster
		sys, err := NewSystemModel(lm.Params().BaseWatts, models, coreCluster)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		loads := make([]CoreLoad, len(coreCluster))
		per := make([]float64, len(models))
		for call := 0; call < 5000; call++ {
			for id, ci := range coreCluster {
				if call > 0 && rng.Intn(3) > 0 {
					continue // hold this core's load: the cache path
				}
				table := models[ci].table
				opp := table.At(rng.Intn(table.Len()))
				switch rng.Intn(8) {
				case 0:
					opp.Volt += 0.01 // off-ladder voltage
				case 1:
					opp.Volt = soc.Volt(math.NaN())
				case 2:
					opp.Freq++ // off-ladder frequency
				}
				state := []soc.CoreState{soc.StateOffline, soc.StateIdle, soc.StateActive}[rng.Intn(3)]
				util := []float64{0, 0.3, 1}[rng.Intn(3)]
				loads[id] = CoreLoad{State: state, OPP: opp, Util: util}
			}
			_, got := sys.SystemWattsByCluster(loads, per)
			for ci, m := range models {
				want, anyBusy, top := 0.0, 0.0, soc.Hz(0)
				for id, owner := range coreCluster {
					if owner != ci {
						continue
					}
					c := loads[id]
					want += m.CoreWatts(c.State, c.OPP, c.Util)
					if c.State != soc.StateOffline {
						anyBusy = math.Max(anyBusy, c.Util)
						if c.OPP.Freq > top {
							top = c.OPP.Freq
						}
					}
				}
				want += m.CacheWatts(anyBusy, top)
				if !sameBits(got[ci], want) {
					t.Fatalf("%d clusters, call %d cluster %d: cached %v, uncached %v", len(models), call, ci, got[ci], want)
				}
			}
			if len(models) == 1 {
				if w := lm.ClusterWatts(loads); !sameBits(got[0], w) {
					t.Fatalf("call %d: one-cluster share %v, Model.ClusterWatts %v", call, got[0], w)
				}
				if sw, w := sys.SystemWatts(loads), lm.SystemWatts(loads); !sameBits(sw, w) {
					t.Fatalf("call %d: one-cluster SystemWatts %v, Model.SystemWatts %v", call, sw, w)
				}
			}
		}
	}
}

// sameBits compares two watts figures bit for bit, any NaN equal to any.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}
