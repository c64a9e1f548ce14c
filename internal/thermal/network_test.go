package thermal

import (
	"math"
	"testing"
	"time"

	"mobicore/internal/soc"
)

// littleParams/bigParams mirror the Nexus 6P calibration shape: the big
// zone has higher thermal resistance and a lower trip than the LITTLE one.
func littleParams() Params {
	return Params{
		AmbientC:        22,
		ResistanceKPerW: 9.0,
		TimeConstant:    10 * time.Second,
		TripC:           70,
		ReleaseC:        66,
		StepPeriod:      time.Second,
	}
}

func bigParams() Params {
	return Params{
		AmbientC:        22,
		ResistanceKPerW: 14.0,
		TimeConstant:    8 * time.Second,
		TripC:           45,
		ReleaseC:        41,
		StepPeriod:      time.Second,
	}
}

func newTestNetwork(t *testing.T, coupling float64) *Network {
	t.Helper()
	n, err := NewNetwork(
		[]Params{littleParams(), bigParams()},
		[]*soc.OPPTable{soc.MSM8994LittleTable(), soc.MSM8994BigTable()},
		coupling,
	)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNetworkRejectsBadInputs(t *testing.T) {
	tables := []*soc.OPPTable{soc.MSM8974Table()}
	params := []Params{littleParams()}
	if _, err := NewNetwork(nil, nil, 0); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewNetwork(params, []*soc.OPPTable{soc.MSM8974Table(), soc.MSM8974Table()}, 0); err == nil {
		t.Error("mismatched params/tables accepted")
	}
	if _, err := NewNetwork(params, tables, -0.1); err == nil {
		t.Error("negative coupling accepted")
	}
	if _, err := NewNetwork(params, tables, 1.1); err == nil {
		t.Error("coupling above 1 accepted")
	}
	bad := params[0]
	bad.ResistanceKPerW = 0
	if _, err := NewNetwork([]Params{bad}, tables, 0); err == nil {
		t.Error("invalid zone params accepted")
	}
}

// TestSingleZoneNetworkMatchesFlatZone: a one-zone network must reproduce
// the flat Zone model bit for bit — the Nexus 5 backward-compatibility
// contract. The coupling term is identically zero with no neighbors.
func TestSingleZoneNetworkMatchesFlatZone(t *testing.T) {
	p := nexus5Params()
	table := soc.MSM8974Table()
	flat, err := NewZone(p, table)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork([]Params{p}, []*soc.OPPTable{table}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	watts := []float64{0.1, 2.4, 3.0, 1.55, 0.0, 2.4, 0.7}
	for i := 0; i < 500; i++ {
		w := watts[i%len(watts)]
		flat.Step(w, 250*time.Millisecond)
		if err := net.Step([]float64{w}, 250*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if net.TempC(0) != flat.TempC() {
			t.Fatalf("step %d: network temp %v != flat zone temp %v", i, net.TempC(0), flat.TempC())
		}
		if net.CapFreq(0) != flat.CapFreq() || net.Throttling(0) != flat.Throttling() {
			t.Fatalf("step %d: network cap %v/%v != flat cap %v/%v",
				i, net.CapFreq(0), net.Throttling(0), flat.CapFreq(), flat.Throttling())
		}
	}
}

// TestAsymmetricThrottle: under a sustained load that heats the big zone
// past its trip, the big cluster caps while the LITTLE cluster — cooler
// zone, higher trip — stays uncapped on its full ladder.
func TestAsymmetricThrottle(t *testing.T) {
	n := newTestNetwork(t, 0.3)
	for i := 0; i < 120; i++ {
		if err := n.Step([]float64{0.9, 2.5}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Throttling(1) {
		t.Fatalf("big zone at %.1f C (trip %v) not throttling", n.TempC(1), bigParams().TripC)
	}
	if n.Throttling(0) {
		t.Errorf("LITTLE zone throttling at %.1f C, trip is %v", n.TempC(0), littleParams().TripC)
	}
	if got, want := n.CapFreq(0), soc.MSM8994LittleTable().Max().Freq; got != want {
		t.Errorf("LITTLE cap %v, want uncapped %v", got, want)
	}
	if n.CapFreq(1) >= soc.MSM8994BigTable().Max().Freq {
		t.Error("big cluster cap did not move below its ladder max")
	}
	if n.MaxTempC() != n.TempC(1) {
		t.Errorf("MaxTempC %v should be the big zone's %v", n.MaxTempC(), n.TempC(1))
	}
	if n.HeadroomC(1) > 0 {
		t.Errorf("big zone above trip should have negative headroom, got %v", n.HeadroomC(1))
	}
	if n.HeadroomC(0) <= 0 {
		t.Errorf("cool LITTLE zone should have positive headroom, got %v", n.HeadroomC(0))
	}
}

// TestIndependentRelease: after the big zone's load is removed, its cap
// releases on its own hysteresis regardless of the other zone's state.
func TestIndependentRelease(t *testing.T) {
	n := newTestNetwork(t, 0.3)
	for i := 0; i < 120; i++ {
		if err := n.Step([]float64{0.9, 2.5}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Throttling(1) {
		t.Fatal("setup: big zone not throttling")
	}
	// Big idles, LITTLE keeps its load: the big zone must cool below its
	// release point and lift its cap while LITTLE continues unthrottled.
	for i := 0; i < 600; i++ {
		if err := n.Step([]float64{0.9, 0.05}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n.Throttling(1) {
		t.Errorf("big zone still capped at %.1f C after cooling (release %v)", n.TempC(1), bigParams().ReleaseC)
	}
	if n.Throttling(0) {
		t.Error("LITTLE zone throttled by its neighbor's recovery")
	}
	if got, want := n.CapFreq(1), soc.MSM8994BigTable().Max().Freq; got != want {
		t.Errorf("released big cap %v, want ladder max %v", got, want)
	}
}

// TestCouplingRaisesNeighborMonotonically: with the LITTLE cluster idle,
// increasing coupling fractions must monotonically raise the LITTLE zone's
// steady temperature under the same big-cluster power.
func TestCouplingRaisesNeighborMonotonically(t *testing.T) {
	couplings := []float64{0, 0.15, 0.3, 0.6, 1.0}
	var prev float64 = -math.MaxFloat64
	for _, c := range couplings {
		n := newTestNetwork(t, c)
		for i := 0; i < 300; i++ {
			if err := n.Step([]float64{0, 2.0}, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		got := n.TempC(0)
		if got <= prev {
			t.Errorf("coupling %v: LITTLE temp %.2f C not above %.2f C at lower coupling", c, got, prev)
		}
		prev = got
	}
	// Zero coupling leaves the idle neighbor exactly at ambient.
	n := newTestNetwork(t, 0)
	for i := 0; i < 300; i++ {
		if err := n.Step([]float64{0, 2.0}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n.TempC(0) != littleParams().AmbientC {
		t.Errorf("uncoupled idle zone at %.2f C, want ambient", n.TempC(0))
	}
}

// TestNetworkStepLengthMismatch: feeding the wrong number of watt entries
// is an error, not a silent truncation.
func TestNetworkStepLengthMismatch(t *testing.T) {
	n := newTestNetwork(t, 0.3)
	if err := n.Step([]float64{1.0}, time.Second); err == nil {
		t.Error("short watts slice accepted")
	}
}

// TestNetworkReset returns every zone to ambient with no caps.
func TestNetworkReset(t *testing.T) {
	n := newTestNetwork(t, 0.3)
	for i := 0; i < 120; i++ {
		if err := n.Step([]float64{0.9, 2.5}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	n.Reset()
	if n.Throttling(0) || n.Throttling(1) {
		t.Error("reset network still throttling")
	}
	if n.TempC(0) != 22 || n.TempC(1) != 22 {
		t.Errorf("reset temps %.1f/%.1f, want ambient", n.TempC(0), n.TempC(1))
	}
}
