package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

func table(t *testing.T) *soc.OPPTable {
	t.Helper()
	return soc.MSM8974Table()
}

func model(t *testing.T) *power.Model {
	t.Helper()
	coeff, exp, err := power.FitLeak(1.2, 0.120, 0.9, 0.047)
	if err != nil {
		t.Fatal(err)
	}
	m, err := power.NewModel(power.Params{
		CeffFarads:      1.35e-10,
		LeakCoeffWatts:  coeff,
		LeakExponent:    exp,
		OfflineWatts:    0.002,
		CacheBaseWatts:  0.040,
		CacheSlopeWatts: 0.040,
		BaseWatts:       0.080,
	}, soc.MSM8974Table())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newMobi builds the one-domain manager with the §5.2 threshold rule.
func newMobi(t *testing.T) *Clustered {
	t.Helper()
	return newOneDomain(t, nil)
}

// newMobiModel builds the one-domain manager with the §4.2 model search.
func newMobiModel(t *testing.T) *Clustered {
	t.Helper()
	return newOneDomain(t, model(t))
}

func newOneDomain(t *testing.T, m *power.Model) *Clustered {
	t.Helper()
	c, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), []Domain{{Name: "cpu", Table: table(t), Model: m}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cpuViews is the one-domain topology of a 4-core homogeneous SoC.
func cpuViews() []policy.ClusterView {
	return []policy.ClusterView{{Name: "cpu", Table: soc.MSM8974Table(), CoreIDs: []int{0, 1, 2, 3}}}
}

func in4(utils [4]float64, online [4]bool, freq soc.Hz) policy.Input {
	return policy.Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     utils[:],
		Online:   online[:],
		CurFreq:  []soc.Hz{freq, freq, freq, freq},
		Quota:    1,
		Clusters: cpuViews(),
	}
}

var allOn = [4]bool{true, true, true, true}

func TestTunablesValidate(t *testing.T) {
	good := DefaultTunables()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Tunables)
	}{
		{"LowUtil zero", func(tu *Tunables) { tu.LowUtil = 0 }},
		{"DownDelta zero", func(tu *Tunables) { tu.DownDelta = 0 }},
		{"SlowScale above one", func(tu *Tunables) { tu.SlowScale = 1.1 }},
		{"negative headroom", func(tu *Tunables) { tu.QuotaHeadroom = -0.1 }},
		{"MinQuota zero", func(tu *Tunables) { tu.MinQuota = 0 }},
		{"OffThreshold above one", func(tu *Tunables) { tu.OffThreshold = 1.1 }},
		{"MinCores zero", func(tu *Tunables) { tu.MinCores = 0 }},
		{"PegThreshold zero", func(tu *Tunables) { tu.PegThreshold = 0 }},
		{"bad ondemand", func(tu *Tunables) { tu.Ondemand.UpThreshold = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tun := DefaultTunables()
			tt.mutate(&tun)
			if err := tun.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestConstructors(t *testing.T) {
	if _, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), []Domain{{Name: "cpu"}}); err == nil {
		t.Error("nil table accepted")
	}
	bad := DefaultTunables()
	bad.MinCores = 0
	if _, err := NewClustered(bad, DefaultClusterTunables(), []Domain{{Name: "cpu", Table: table(t)}}); err == nil {
		t.Error("invalid tunables accepted")
	}
	for _, withModel := range []bool{true, false} {
		m, err := NewClusteredForPlatform(platform.Nexus5(), DefaultTunables(), DefaultClusterTunables(), withModel)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.inner[0].model != nil; got != withModel {
			t.Errorf("withModel %v: domain model attached = %v", withModel, got)
		}
		if got := m.emod != nil; got != withModel {
			t.Errorf("withModel %v: energy model attached = %v", withModel, got)
		}
	}
}

// TestQuotaAlgorithm walks Algorithm 4.1.2's branches (Table 2).
func TestQuotaAlgorithm(t *testing.T) {
	m := newMobi(t)
	decide := func(util float64) float64 {
		dec, err := m.Decide(in4([4]float64{util, util, util, util}, allOn, 960_000*soc.KHz))
		if err != nil {
			t.Fatal(err)
		}
		return dec.Quota
	}
	// High overall load: full bandwidth regardless of history.
	if q := decide(0.70); q != 1 {
		t.Errorf("high load quota = %v, want 1", q)
	}
	// Falling low load (0.70→0.30, delta −0.40): slow mode — quota
	// shrinks to (util+headroom)·0.9.
	tun := DefaultTunables()
	if q, want := decide(0.30), (0.30+tun.QuotaHeadroom)*tun.SlowScale; math.Abs(q-want) > 1e-9 {
		t.Errorf("slow mode quota = %v, want %v", q, want)
	}
	// Steady low load (delta 0): shrink-to-fit with headroom.
	if q, want := decide(0.30), 0.30+tun.QuotaHeadroom; math.Abs(q-want) > 1e-9 {
		t.Errorf("fit quota = %v, want %v", q, want)
	}
	// Burst (0.30→0.38, delta > UpDelta): full bandwidth.
	if q := decide(0.38); q != 1 {
		t.Errorf("burst quota = %v, want 1", q)
	}
}

func TestQuotaFloor(t *testing.T) {
	m := newMobi(t)
	// Prime history high, then drop to near zero repeatedly.
	if _, err := m.Decide(in4([4]float64{0.5, 0.5, 0.5, 0.5}, allOn, 960_000*soc.KHz)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		dec, err := m.Decide(in4([4]float64{0.0, 0.0, 0.0, 0.0}, allOn, 300*soc.MHz))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Quota < DefaultTunables().MinQuota {
			t.Fatalf("quota %v fell below floor %v", dec.Quota, DefaultTunables().MinQuota)
		}
	}
}

// TestThresholdCoreRule: the §5.2 rule offlines cores under 10% util.
func TestThresholdCoreRule(t *testing.T) {
	m := newMobi(t)
	dec, err := m.Decide(in4([4]float64{0.50, 0.50, 0.05, 0.02}, allOn, 960_000*soc.KHz))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[0] != 2 {
		t.Errorf("two sub-10%% cores should leave 2 online, got %d", dec.OnlineVec[0])
	}
	// All idle: MinCores floor.
	dec, err = m.Decide(in4([4]float64{0, 0, 0, 0}, allOn, 300*soc.MHz))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[0] != DefaultTunables().MinCores {
		t.Errorf("all-idle cores = %d, want MinCores %d", dec.OnlineVec[0], DefaultTunables().MinCores)
	}
}

// TestEq9GrowsCoresInsteadOfOverclocking: §5.3 — when the law demands more
// than f_max, a core is added rather than a frequency threshold crossed.
func TestEq9GrowsCoresInsteadOfOverclocking(t *testing.T) {
	m := newMobi(t)
	// Saturated: all cores pegged at f_max already.
	fmax := table(t).Max().Freq
	dec, err := m.Decide(in4([4]float64{1, 1, 0.5, 0.5}, [4]bool{true, true, false, false}, fmax))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[0] <= 2 {
		t.Errorf("saturated 2-core system should grow cores, got %d", dec.OnlineVec[0])
	}
	for i := 0; i < dec.OnlineVec[0]; i++ {
		if dec.TargetFreq[i] > fmax {
			t.Errorf("core %d target %v above f_max", i, dec.TargetFreq[i])
		}
	}
}

// TestPeggedEscalation: a pegged core gets the unscaled ondemand frequency
// (f_max) even when overall utilization is low.
func TestPeggedEscalation(t *testing.T) {
	m := newMobi(t)
	cur := 960_000 * soc.KHz
	dec, err := m.Decide(in4([4]float64{1.0, 0.1, 0.1, 0.1}, allOn, cur))
	if err != nil {
		t.Fatal(err)
	}
	if dec.TargetFreq[0] != table(t).Max().Freq {
		t.Errorf("pegged core target = %v, want f_max escalation", dec.TargetFreq[0])
	}
	if dec.Quota != 1 {
		t.Errorf("pegged quota = %v, want 1 (throttling a starved thread is harmful)", dec.Quota)
	}
}

// TestTrimsBelowOndemand: MobiCore's defining behaviour — at moderate load
// it programs less than ondemand's burst choice.
func TestTrimsBelowOndemand(t *testing.T) {
	m := newMobi(t)
	// One core crossing the up-threshold at a mid frequency: ondemand
	// would program f_max; Eq. 9 scales it by K (≈0.30 here).
	cur := 960_000 * soc.KHz
	dec, err := m.Decide(in4([4]float64{0.85, 0.15, 0.1, 0.1}, allOn, cur))
	if err != nil {
		t.Fatal(err)
	}
	fmax := table(t).Max().Freq
	for i := 0; i < dec.OnlineVec[0]; i++ {
		if dec.TargetFreq[i] >= fmax {
			t.Errorf("core %d = f_max; MobiCore should give the just-needed frequency", i)
		}
	}
}

// TestDecisionAlwaysValid: arbitrary legal inputs produce decisions that
// pass validation — the closed-loop safety property.
func TestDecisionAlwaysValid(t *testing.T) {
	tbl := table(t)
	for vi, variant := range []*Clustered{newMobi(t), newMobiModel(t)} {
		prop := func(rawUtil [4]uint16, rawFreq uint8, onlineMask uint8) bool {
			var utils [4]float64
			var online [4]bool
			anyOn := false
			for i := 0; i < 4; i++ {
				utils[i] = float64(rawUtil[i]) / 65535
				online[i] = onlineMask&(1<<i) != 0
				if online[i] {
					anyOn = true
				} else {
					utils[i] = 0
				}
			}
			if !anyOn {
				online[0] = true
			}
			freq := tbl.At(int(rawFreq) % tbl.Len()).Freq
			in := in4(utils, online, freq)
			dec, err := variant.Decide(in)
			if err != nil {
				return false
			}
			return dec.Validate(in.Clusters, 4) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
			t.Errorf("%v (model=%v)", err, vi == 1)
		}
	}
}

func TestReset(t *testing.T) {
	m := newMobi(t)
	if _, err := m.Decide(in4([4]float64{0.5, 0.5, 0.5, 0.5}, allOn, 960_000*soc.KHz)); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	// First post-reset low-util decision has no history → full quota.
	dec, err := m.Decide(in4([4]float64{0.1, 0.1, 0.1, 0.1}, allOn, 300*soc.MHz))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Quota != 1 {
		t.Errorf("post-reset quota = %v, want 1 (no history)", dec.Quota)
	}
}

func TestChooseOperatingPointPrefersFewCoresAtLowLoad(t *testing.T) {
	m := model(t)
	tbl := table(t)
	// 10% of total capacity: one core is the known optimum (Fig. 5a).
	demand := 0.10 * 4 * float64(tbl.Max().Freq)
	best, err := ChooseOperatingPoint(m, tbl, demand, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cores != 1 {
		t.Errorf("low-load optimum uses %d cores, want 1", best.Cores)
	}
	if !power.CapacityMet(best.Cores, best.OPP, demand) {
		t.Error("chosen point cannot serve the demand")
	}
}

func TestChooseOperatingPointInfeasibleDemand(t *testing.T) {
	m := model(t)
	tbl := table(t)
	demand := 10 * 4 * float64(tbl.Max().Freq) // 10× the whole SoC
	best, err := ChooseOperatingPoint(m, tbl, demand, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cores != 4 || best.OPP.Freq != tbl.Max().Freq {
		t.Errorf("infeasible demand should run flat out, got (%d, %v)", best.Cores, best.OPP.Freq)
	}
}

func TestSweepOperatingPointsFeasibleOnly(t *testing.T) {
	m := model(t)
	tbl := table(t)
	demand := 0.50 * 4 * float64(tbl.Max().Freq)
	points, err := SweepOperatingPoints(m, tbl, demand, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no feasible points at 50% load")
	}
	for _, p := range points {
		if !power.CapacityMet(p.Cores, p.OPP, demand) {
			t.Errorf("infeasible point (%d, %v) included", p.Cores, p.OPP.Freq)
		}
		if p.PredictedWatts <= 0 {
			t.Errorf("non-positive prediction at (%d, %v)", p.Cores, p.OPP.Freq)
		}
	}
}

func TestOracleManager(t *testing.T) {
	o, err := NewClusteredOracleForPlatform(platform.Nexus5(), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	in := in4([4]float64{0.3, 0.3, 0.3, 0.3}, allOn, 960_000*soc.KHz)
	dec, err := o.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(in.Clusters, 4); err != nil {
		t.Errorf("oracle decision invalid: %v", err)
	}
	if dec.Quota != 1 {
		t.Errorf("oracle quota = %v, want 1", dec.Quota)
	}
	if _, err := NewClusteredOracleForPlatform(platform.Nexus5(), -1); err == nil {
		t.Error("negative headroom accepted")
	}
}

// TestOneClusterOracleMatchesChooseOperatingPoint: on a homogeneous SoC
// the joint per-cluster search picks the same (cores, OPP) as the §4.2
// single-domain search at every demand, from idle to beyond the SoC.
func TestOneClusterOracleMatchesChooseOperatingPoint(t *testing.T) {
	for _, plat := range []platform.Platform{platform.Nexus5(), platform.NexusS(), platform.LGG3()} {
		comp, err := plat.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		m, tbl, n := comp.Models[0], comp.Tables[0], plat.NumCores
		top := 1.1 * float64(n) * float64(tbl.Max().Freq)
		for i := 0; i <= 2000; i++ {
			demand := top * float64(i) / 2000
			want, err := ChooseOperatingPoint(m, tbl, demand, n)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ChooseClusterOperatingPoints(comp.BaseWatts, comp.Models, comp.Tables, []int{n}, demand)
			if err != nil {
				t.Fatal(err)
			}
			if got[0].Cores != want.Cores || got[0].OPP != want.OPP {
				t.Fatalf("%s demand %v: cluster search (%d, %v), single search (%d, %v)",
					plat.Name, demand, got[0].Cores, got[0].OPP.Freq, want.Cores, want.OPP.Freq)
			}
		}
	}
}

// TestOneDomainQuotaExact: a one-domain manager returns its domain's
// quota bit for bit at any core count — the whole-SoC rescaling q·n/n
// would not round back to q for n = 3, 5 or 6.
func TestOneDomainQuotaExact(t *testing.T) {
	tbl := table(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 4, 5, 6} {
		mgr := newMobi(t)
		ref, err := build(tbl, DefaultTunables(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		in := policy.Input{
			Period:   50 * time.Millisecond,
			Util:     make([]float64, n),
			Online:   make([]bool, n),
			CurFreq:  make([]soc.Hz, n),
			Quota:    1,
			Clusters: []policy.ClusterView{{Name: "cpu", Table: tbl, CoreIDs: ids}},
		}
		local := make([]soc.Hz, n)
		for step := 0; step < 400; step++ {
			in.Now += in.Period
			for i := range in.Util {
				in.Util[i] = 0.45 * rng.Float64()
				in.Online[i] = true
				in.CurFreq[i] = tbl.At(rng.Intn(tbl.Len())).Freq
			}
			dec, err := mgr.Decide(in)
			if err != nil {
				t.Fatal(err)
			}
			_, want := ref.decide(&in, ids, local)
			if math.Float64bits(dec.Quota) != math.Float64bits(want) {
				t.Fatalf("%d cores, step %d: quota %v, domain quota %v", n, step, dec.Quota, want)
			}
		}
	}
}
