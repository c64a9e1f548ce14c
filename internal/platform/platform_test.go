package platform

import (
	"math"
	"testing"

	"mobicore/internal/power"
	"mobicore/internal/soc"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestValidateRejectsNonFinite: a Nexus 5 with a NaN coupling, a NaN
// capacitance or an infinite thermal resistance once validated and ran to
// EnergyJ = NaN and MaxTempC = -Inf. Each alone must now fail, on the
// top-level profile and inside a cluster.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := map[string]func(*Platform){
		"coupling NaN":    func(p *Platform) { p.ThermalCoupling = math.NaN() },
		"coupling +Inf":   func(p *Platform) { p.ThermalCoupling = math.Inf(1) },
		"ceff NaN":        func(p *Platform) { p.Power.CeffFarads = math.NaN() },
		"resistance +Inf": func(p *Platform) { p.Thermal.ResistanceKPerW = math.Inf(1) },
		"cluster ceff NaN": func(p *Platform) {
			p.Clusters = nanCluster(p, func(cs *ClusterSpec) { cs.Power.CeffFarads = math.NaN() })
		},
		"cluster ambient -Inf": func(p *Platform) {
			p.Clusters = nanCluster(p, func(cs *ClusterSpec) { cs.Thermal.AmbientC = math.Inf(-1) })
		},
		"cluster base watts NaN": func(p *Platform) {
			p.Clusters = nanCluster(p, func(cs *ClusterSpec) { cs.Power.BaseWatts = math.NaN() })
		},
	}
	for name, mutate := range cases {
		p := Nexus6P()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	p := Nexus5()
	p.ThermalCoupling, p.Power.CeffFarads, p.Thermal.ResistanceKPerW = math.NaN(), math.NaN(), math.Inf(1)
	if err := p.Validate(); err == nil {
		t.Error("Nexus 5 with NaN coupling, NaN capacitance and infinite resistance accepted")
	}
}

// nanCluster returns a copy of p's clusters with mutate applied to the
// last one, leaving the shared profile untouched.
func nanCluster(p *Platform, mutate func(*ClusterSpec)) []ClusterSpec {
	cl := append([]ClusterSpec(nil), p.Clusters...)
	mutate(&cl[len(cl)-1])
	return cl
}

func TestAllOrderedByYear(t *testing.T) {
	profiles := All()
	if len(profiles) != 6 {
		t.Fatalf("profile count = %d, want the 6 Figure-1 handsets", len(profiles))
	}
	for i := 1; i < len(profiles); i++ {
		if profiles[i].Year < profiles[i-1].Year {
			t.Errorf("profiles out of year order: %s (%d) after %s (%d)",
				profiles[i].Name, profiles[i].Year, profiles[i-1].Name, profiles[i-1].Year)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("Nexus 5")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores != 4 {
		t.Errorf("Nexus 5 cores = %d, want 4", p.NumCores)
	}
	if _, err := ByName("iPhone"); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestNexus5Table1Anchors checks the Table 1 specification.
func TestNexus5Table1Anchors(t *testing.T) {
	p := Nexus5()
	if p.Table.Len() != 14 {
		t.Errorf("OPP count = %d, want 14", p.Table.Len())
	}
	if got, want := p.Table.Min().Freq, 300*soc.MHz; got != want {
		t.Errorf("f_min = %v, want %v", got, want)
	}
	if got, want := p.Table.Max().Freq, 2_265_600*soc.KHz; got != want {
		t.Errorf("f_max = %v, want %v", got, want)
	}
	if p.Table.Min().Volt != 0.9 || p.Table.Max().Volt != 1.2 {
		t.Errorf("voltage range = [%v,%v], want [0.9,1.2]", p.Table.Min().Volt, p.Table.Max().Volt)
	}
}

// TestNexus5LeakAnchors checks the §4.1.2 static power measurement.
func TestNexus5LeakAnchors(t *testing.T) {
	p := Nexus5()
	m, err := power.NewModel(p.Power, p.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LeakWatts(p.Table.Max().Volt); math.Abs(got-0.120) > 1e-6 {
		t.Errorf("leak at f_max = %.4f W, want 0.120", got)
	}
	if got := m.LeakWatts(p.Table.Min().Volt); math.Abs(got-0.047) > 1e-6 {
		t.Errorf("leak at f_min = %.4f W, want 0.047", got)
	}
}

// TestFullBlastPowerOrdering reproduces the Figure 1 relation: full-stress
// power grows with core count across generations, and the two single-core
// phones sit near 0.85–0.98 W while the quad-cores sit above 2 W.
func TestFullBlastPowerOrdering(t *testing.T) {
	blast := func(p Platform) float64 {
		m, err := power.NewModel(p.Power, p.Table)
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]power.CoreLoad, p.NumCores)
		for i := range loads {
			loads[i] = power.CoreLoad{State: soc.StateActive, OPP: p.Table.Max(), Util: 1}
		}
		return m.SystemWatts(loads)
	}
	nexusS := blast(NexusS())
	nexus5 := blast(Nexus5())
	if math.Abs(nexusS-0.9806) > 0.05 {
		t.Errorf("Nexus S full blast = %.3f W, want ≈0.981 (paper §1.2)", nexusS)
	}
	if math.Abs(nexus5-2.4038) > 0.08 {
		t.Errorf("Nexus 5 full blast = %.3f W, want ≈2.404 (paper §1.2, values un-swapped)", nexus5)
	}
	// "The Nexus 5 is 140% more power consuming than the Nexus S."
	if ratio := nexus5/nexusS - 1; math.Abs(ratio-1.40) > 0.15 {
		t.Errorf("Nexus 5 vs Nexus S = +%.0f%%, want ≈+140%%", ratio*100)
	}
	// Monotone-ish growth with core count across the lineup.
	prev := 0.0
	for _, p := range []Platform{MotorolaMB810(), GalaxyS2(), Nexus4(), Nexus5()} {
		w := blast(p)
		if w <= prev {
			t.Errorf("%s full blast %.2f W not above previous %.2f W", p.Name, w, prev)
		}
		prev = w
	}
}

// TestThermalAnchors reproduces the Figure 2a temperatures at steady state.
func TestThermalAnchors(t *testing.T) {
	checks := []struct {
		plat  Platform
		watts float64
		wantC float64
	}{
		{Nexus5(), 2.404, 42.1},
		{NexusS(), 0.981, 26.9},
	}
	for _, c := range checks {
		steady := c.plat.Thermal.AmbientC + c.watts*c.plat.Thermal.ResistanceKPerW
		if math.Abs(steady-c.wantC) > 1.0 {
			t.Errorf("%s steady state = %.1f C, want %.1f (Fig. 2a)", c.plat.Name, steady, c.wantC)
		}
	}
}

func TestNexus5SharedRail(t *testing.T) {
	p := Nexus5SharedRail()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Power.IdleLeakFraction >= 1 || p.Power.IdleLeakFraction <= 0 {
		t.Errorf("shared rail idle fraction = %v, want in (0,1)", p.Power.IdleLeakFraction)
	}
	if Nexus5().Power.IdleLeakFraction != 0 {
		t.Error("counterfactual leaked into the calibrated profile")
	}
}

func TestWithoutThrottle(t *testing.T) {
	p := Nexus5().WithoutThrottle()
	if p.Thermal.TripC != 0 {
		t.Error("WithoutThrottle left the trip point set")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("throttle-free profile invalid: %v", err)
	}
	if Nexus5().Thermal.TripC == 0 {
		t.Error("WithoutThrottle mutated the base profile")
	}
}
