package em_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobicore/internal/em"
	"mobicore/internal/platform"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

func testSpecs(t *testing.T) []em.DomainSpec {
	t.Helper()
	little, err := soc.UniformTable(3, 400*soc.MHz, 1000*soc.MHz, 0.80, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	big, err := soc.UniformTable(3, 500*soc.MHz, 2000*soc.MHz, 0.85, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	params := func(ceff float64) power.Params {
		return power.Params{
			CeffFarads:      ceff,
			LeakCoeffWatts:  0.02,
			LeakExponent:    2.5,
			OfflineWatts:    0.001,
			CacheBaseWatts:  0.02,
			CacheSlopeWatts: 0.02,
			BaseWatts:       0.05,
		}
	}
	return []em.DomainSpec{
		{Name: "LITTLE", CoreIDs: []int{0, 1}, Table: little, Params: params(1.0e-10)},
		{Name: "big", CoreIDs: []int{2, 3}, Table: big, Params: params(2.0e-10)},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := em.New(nil); err == nil {
		t.Error("empty spec list accepted")
	}
	specs := testSpecs(t)
	specs[1].CoreIDs = []int{1, 2} // overlaps domain 0
	if _, err := em.New(specs); err == nil {
		t.Error("overlapping core ids accepted")
	}
	specs = testSpecs(t)
	specs[0].CoreIDs = []int{0, 3} // together with {2,4} this leaves core 1 unowned
	specs[1].CoreIDs = []int{2, 4}
	if _, err := em.New(specs); err == nil {
		t.Error("core ownership gap accepted")
	}
	specs = testSpecs(t)
	specs[0].Params.CeffFarads = -1
	if _, err := em.New(specs); err == nil {
		t.Error("invalid power params accepted")
	}
}

func TestDomainTables(t *testing.T) {
	m, err := em.New(testSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDomains() != 2 || m.NumCores() != 4 {
		t.Fatalf("domains=%d cores=%d, want 2/4", m.NumDomains(), m.NumCores())
	}
	for id, want := range []int{0, 0, 1, 1} {
		if got := m.DomainOf(id); got != want {
			t.Errorf("DomainOf(%d) = %d, want %d", id, got, want)
		}
	}
	if m.DomainOf(-1) != -1 || m.DomainOf(99) != -1 {
		t.Error("out-of-range DomainOf should return -1")
	}
	little := m.Domain(0)
	if little.Capacity() != 1000e6 {
		t.Errorf("LITTLE capacity = %v, want 1e9", little.Capacity())
	}
	// Cost tables must agree with the power model evaluated directly.
	pm := little.Model()
	for i := 0; i < little.NumOPPs(); i++ {
		opp := little.Table().At(i)
		want := pm.CoreWatts(soc.StateActive, opp, 1) / float64(opp.Freq)
		if got := little.CostPerCycleAt(i); math.Abs(got-want) > 1e-18 {
			t.Errorf("OPP %d cost %v, want %v", i, got, want)
		}
	}
	// Cost per cycle rises with frequency on a convex ladder.
	for i := 1; i < little.NumOPPs(); i++ {
		if little.CostPerCycleAt(i) <= little.CostPerCycleAt(i-1) {
			t.Errorf("cost not increasing at OPP %d", i)
		}
	}
}

func TestOPPForRate(t *testing.T) {
	m, err := em.New(testSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	d := m.Domain(0) // ladder 400/700/1000 MHz
	cases := []struct {
		rate float64
		want int
	}{
		{0, 0}, {100e6, 0}, {400e6, 0}, {401e6, 1}, {700e6, 1}, {900e6, 2}, {5e9, 2},
		// Edge cases: a NaN rate compares false against every OPP and so
		// clamps to the top, like sort.SearchFloat64s; -0 and negative
		// rates pick the floor; ±Inf clamp to the ends.
		{math.NaN(), 2}, {math.Inf(1), 2}, {math.Inf(-1), 0}, {-1, 0}, {math.Copysign(0, -1), 0},
		{math.Nextafter(400e6, 0), 0}, {math.Nextafter(400e6, math.Inf(1)), 1},
		{math.Nextafter(1000e6, 0), 2}, {1000e6, 2}, {math.Nextafter(1000e6, math.Inf(1)), 2},
		{math.MaxFloat64, 2}, {math.SmallestNonzeroFloat64, 0},
	}
	for _, c := range cases {
		if got := d.OPPForRate(c.rate); got != c.want {
			t.Errorf("OPPForRate(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

// TestOPPForRateMatchesSearchFloat64s pins OPPForRate to the semantics of
// sort.SearchFloat64s over the domain's ladder, clamped to the top OPP, on
// every OPP, its neighbours, and a spread of random rates.
func TestOPPForRateMatchesSearchFloat64s(t *testing.T) {
	m, err := em.New(testSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	for di := 0; di < m.NumDomains(); di++ {
		d := m.Domain(di)
		freqs := make([]float64, d.NumOPPs())
		for i := range freqs {
			freqs[i] = d.FreqAt(i)
		}
		want := func(rate float64) int {
			i := sort.SearchFloat64s(freqs, rate)
			if i == len(freqs) {
				i--
			}
			return i
		}
		rates := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5e8}
		for _, f := range freqs {
			rates = append(rates, f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			rates = append(rates, rng.Float64()*2.5e9)
		}
		for _, r := range rates {
			if got, w := d.OPPForRate(r), want(r); got != w {
				t.Errorf("domain %d: OPPForRate(%v) = %d, sort.SearchFloat64s says %d", di, r, got, w)
			}
		}
	}
}

func TestWattsForDemand(t *testing.T) {
	m, err := em.New(testSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	d := m.Domain(0)
	w1, met := d.WattsForDemand(500e6, 2)
	if !met {
		t.Error("500 MHz demand on 2×1GHz cores reported unmet")
	}
	if w1 <= 0 {
		t.Errorf("watts = %v, want positive", w1)
	}
	_, met = d.WattsForDemand(3e9, 2)
	if met {
		t.Error("3 GHz demand on 2×1GHz cores reported met")
	}
	// More demand on the same core count costs more.
	w2, _ := d.WattsForDemand(900e6, 2)
	if w2 <= w1 {
		t.Errorf("watts(900M)=%v not above watts(500M)=%v", w2, w1)
	}
}

func TestEfficiencyOrder(t *testing.T) {
	m, err := em.New(testSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	order := m.EfficiencyOrder()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("efficiency order = %v, want [0 1]", order)
	}
	// Low rates are cheapest on the LITTLE domain, high rates on big —
	// the comparison the placer makes through EnergyPerCycle.
	if l, b := m.Domain(0).EnergyPerCycle(300e6), m.Domain(1).EnergyPerCycle(300e6); l >= b {
		t.Errorf("LITTLE %.3g J/cycle not below big %.3g at 300 MHz", l, b)
	}
}

// TestSD855Crossover locks the convexity crossover the EAS placer exploits:
// on the three-cluster profile a cycle at the top of the silver ladder
// costs more than the same cycle on a gold core at the OPP serving the same
// rate.
func TestSD855Crossover(t *testing.T) {
	c, err := platform.SD855().Compiled()
	if err != nil {
		t.Fatal(err)
	}
	m := c.EM
	if m.NumDomains() != 3 {
		t.Fatalf("domains = %d, want 3", m.NumDomains())
	}
	silver, gold := m.Domain(0), m.Domain(1)
	rate := silver.Capacity() * 0.98 // just under the silver ceiling
	if s, g := silver.EnergyPerCycle(rate), gold.EnergyPerCycle(rate); s <= g {
		t.Errorf("silver top %.3g J/cycle not above gold %.3g — the crossover the EAS placer needs", s, g)
	}
	// At modest rates the efficiency island must win again.
	low := 400e6
	if s, g := silver.EnergyPerCycle(low), gold.EnergyPerCycle(low); s >= g {
		t.Errorf("silver %.3g J/cycle not below gold %.3g at 400 MHz", s, g)
	}
}
