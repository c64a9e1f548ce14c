package platform

import (
	"testing"
	"time"

	"mobicore/internal/soc"
	"mobicore/internal/thermal"
)

func TestSD855Profile(t *testing.T) {
	p := SD855()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Heterogeneous() {
		t.Error("sd855 should be heterogeneous")
	}
	specs := p.ClusterSpecs()
	if len(specs) != 3 {
		t.Fatalf("clusters = %d, want 3", len(specs))
	}
	wantNames := []string{"silver", "gold", "prime"}
	wantCores := []int{4, 3, 1}
	for i, cs := range specs {
		if cs.Name != wantNames[i] || cs.NumCores != wantCores[i] {
			t.Errorf("cluster %d = %s/%d, want %s/%d", i, cs.Name, cs.NumCores, wantNames[i], wantCores[i])
		}
		if !cs.HasThermal() {
			t.Errorf("cluster %s missing its own thermal params", cs.Name)
		}
	}
	// Efficiency ordering: ascending ladder tops so silver gets rank 0.
	for i := 1; i < len(specs); i++ {
		if specs[i].Table.Max().Freq <= specs[i-1].Table.Max().Freq {
			t.Errorf("cluster %s top %v not above %s top %v",
				specs[i].Name, specs[i].Table.Max().Freq, specs[i-1].Name, specs[i-1].Table.Max().Freq)
		}
	}
	if p.NumCores != 8 {
		t.Errorf("NumCores = %d, want 8", p.NumCores)
	}
}

// TestSD855WithoutThrottle: clearing the trips must cover all three
// clusters and must not mutate the original profile (the cluster slice is
// copied, not shared).
func TestSD855WithoutThrottle(t *testing.T) {
	orig := SD855()
	cleared := orig.WithoutThrottle()
	if cleared.Thermal.TripC != 0 || cleared.Thermal.ReleaseC != 0 {
		t.Error("platform-level trip not cleared")
	}
	for i, cs := range cleared.Clusters {
		if cs.Thermal.TripC != 0 || cs.Thermal.ReleaseC != 0 {
			t.Errorf("cluster %d (%s) trip not cleared: trip=%v release=%v",
				i, cs.Name, cs.Thermal.TripC, cs.Thermal.ReleaseC)
		}
	}
	// The original must be untouched — every cluster keeps its trip.
	for i, cs := range orig.Clusters {
		if cs.Thermal.TripC == 0 {
			t.Errorf("WithoutThrottle mutated original cluster %d (%s)", i, cs.Name)
		}
	}
	net := compiledNetwork(t, cleared)
	// A throttle-free network never caps, whatever power it integrates.
	for tick := 0; tick < 200; tick++ {
		if err := net.Step([]float64{5, 5, 5}, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for zi := 0; zi < net.Zones(); zi++ {
		if net.Throttling(zi) {
			t.Errorf("throttle-disabled sd855 network engaged zone %d's cap", zi)
		}
	}
}

// compiledNetwork builds p's per-session thermal network from its
// compiled precompute.
func compiledNetwork(t *testing.T, p Platform) *thermal.Network {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	net, err := c.NewThermalNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSD855ThermalNetwork: three zones on their own ladders, with
// shared-die coupling — heating only the gold cluster must warm the other
// two zones, which stay at ambient on the same zones uncoupled, and
// sustained prime-cluster power must trip the prime zone first (smallest
// mass, tightest trip) while silver never trips.
func TestSD855ThermalNetwork(t *testing.T) {
	p := SD855()
	net := compiledNetwork(t, p)
	if net.Zones() != 3 {
		t.Fatalf("zones = %d, want 3", net.Zones())
	}
	uncoupled, err := thermal.NewNetwork(p.ClusterThermalParams(), []*soc.OPPTable{
		p.Clusters[0].Table, p.Clusters[1].Table, p.Clusters[2].Table}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Gold-only heating: all three zones rise above ambient, gold most.
	for tick := 0; tick < 600; tick++ {
		for _, n := range []*thermal.Network{net, uncoupled} {
			if err := n.Step([]float64{0, 2.0, 0}, 100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	ambient := p.Thermal.AmbientC
	for zi := 0; zi < 3; zi++ {
		if net.TempC(zi) <= ambient {
			t.Errorf("zone %d stayed at ambient despite gold coupling", zi)
		}
	}
	for _, zi := range []int{0, 2} {
		if got := uncoupled.TempC(zi); got != ambient {
			t.Errorf("uncoupled zone %d at %.3f C under gold-only power, want ambient", zi, got)
		}
	}
	if net.TempC(1) <= net.TempC(0) || net.TempC(1) <= net.TempC(2) {
		t.Errorf("gold zone %.1f C not the hottest (silver %.1f, prime %.1f)",
			net.TempC(1), net.TempC(0), net.TempC(2))
	}
	// Sustained realistic load: prime trips, silver never does.
	net.Reset()
	for tick := 0; tick < 1200; tick++ {
		if err := net.Step([]float64{0.5, 0.9, 0.8}, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !net.Throttling(2) {
		t.Errorf("prime zone at %.1f C never engaged its cap", net.TempC(2))
	}
	if net.Throttling(0) {
		t.Errorf("silver zone at %.1f C engaged its cap", net.TempC(0))
	}
	// Each zone caps on its own ladder: the prime cap must name a prime OPP.
	if capFreq := net.CapFreq(2); !p.Clusters[2].Table.Contains(capFreq) {
		t.Errorf("prime cap %v is not a prime operating point", capFreq)
	}
}

// TestSD855EnergyModel locks the EM construction: three domains with
// contiguous core ids in cluster order and silver-first efficiency order.
func TestSD855EnergyModel(t *testing.T) {
	c, err := SD855().Compiled()
	if err != nil {
		t.Fatal(err)
	}
	m := c.EM
	if m.NumDomains() != 3 || m.NumCores() != 8 {
		t.Fatalf("domains=%d cores=%d, want 3/8", m.NumDomains(), m.NumCores())
	}
	wantDomain := []int{0, 0, 0, 0, 1, 1, 1, 2}
	for id, want := range wantDomain {
		if got := m.DomainOf(id); got != want {
			t.Errorf("core %d in domain %d, want %d", id, got, want)
		}
	}
	order := m.EfficiencyOrder()
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("efficiency order = %v, want [0 1 2]", order)
	}
}
