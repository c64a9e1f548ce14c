package core

import (
	"testing"
	"time"

	"mobicore/internal/policy"
	"mobicore/internal/soc"
)

func clusterDomains(t *testing.T) ([]Domain, []policy.ClusterView) {
	t.Helper()
	little, err := soc.UniformTable(4, 200*soc.MHz, 1000*soc.MHz, 0.80, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	big, err := soc.UniformTable(5, 300*soc.MHz, 2000*soc.MHz, 0.85, 1.20)
	if err != nil {
		t.Fatal(err)
	}
	domains := []Domain{
		{Name: "LITTLE", Table: little},
		{Name: "big", Table: big},
	}
	views := []policy.ClusterView{
		{Name: "LITTLE", Table: little, CoreIDs: []int{0, 1, 2, 3}},
		{Name: "big", Table: big, CoreIDs: []int{4, 5, 6, 7}},
	}
	return domains, views
}

func clusterInput(views []policy.ClusterView, littleUtil, bigUtil float64, bigOnline bool) policy.Input {
	in := policy.Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     make([]float64, 8),
		Online:   make([]bool, 8),
		CurFreq:  make([]soc.Hz, 8),
		Quota:    1,
		Clusters: views,
	}
	for _, id := range views[0].CoreIDs {
		in.Util[id] = littleUtil
		in.Online[id] = true
		in.CurFreq[id] = views[0].Table.Max().Freq
	}
	for _, id := range views[1].CoreIDs {
		in.Online[id] = bigOnline
		in.CurFreq[id] = views[1].Table.Min().Freq
		if bigOnline {
			in.Util[id] = bigUtil
		}
	}
	return in
}

func TestClusteredParksBigAtLowDemand(t *testing.T) {
	domains, views := clusterDomains(t)
	mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mgr.Decide(clusterInput(views, 0.2, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(views, 8); err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec == nil {
		t.Fatal("clustered manager must emit a per-cluster online vector")
	}
	if dec.OnlineVec[1] != 0 {
		t.Errorf("big cluster online = %d at 20%% LITTLE load, want parked (0)", dec.OnlineVec[1])
	}
	if dec.OnlineVec[0] < 1 {
		t.Errorf("LITTLE cluster online = %d, want >= 1", dec.OnlineVec[0])
	}
	// Parked big cores idle at the domain floor.
	for _, id := range views[1].CoreIDs {
		if dec.TargetFreq[id] != views[1].Table.Min().Freq {
			t.Errorf("parked big core %d target %v, want domain floor %v",
				id, dec.TargetFreq[id], views[1].Table.Min().Freq)
		}
	}
	// The quota is expressed in whole-SoC units: with the big domain
	// parked, even a full LITTLE budget caps at littleCores/totalCores.
	if dec.Quota > 0.5 {
		t.Errorf("quota = %v with the big cluster parked, want <= 0.5 (4 of 8 cores)", dec.Quota)
	}
	// Second sample at steady low load: the LITTLE bandwidth controller
	// engages and the whole-SoC quota shrinks further.
	dec, err = mgr.Decide(clusterInput(views, 0.2, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Quota >= 0.5 {
		t.Errorf("steady low load quota = %v, want < 0.5 (domain quota scaled by 4/8)", dec.Quota)
	}
}

func TestClusteredWakesBigUnderPressure(t *testing.T) {
	domains, views := clusterDomains(t)
	mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
	if err != nil {
		t.Fatal(err)
	}
	// LITTLE pegged at its ceiling: the gate must hand the big cluster to
	// its own MobiCore instance.
	dec, err := mgr.Decide(clusterInput(views, 1.0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(views, 8); err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] < 1 {
		t.Errorf("big cluster online = %d under a pegged LITTLE cluster, want >= 1", dec.OnlineVec[1])
	}
}

func TestClusteredGateHysteresis(t *testing.T) {
	domains, views := clusterDomains(t)
	mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
	if err != nil {
		t.Fatal(err)
	}
	// Wake...
	if _, err := mgr.Decide(clusterInput(views, 1.0, 0, false)); err != nil {
		t.Fatal(err)
	}
	// ...then mid-band demand: above BigPark, below BigWake — stays awake.
	dec, err := mgr.Decide(clusterInput(views, 0.7, 0.1, true))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] < 1 {
		t.Error("gate flapped: big parked in the hysteresis band")
	}
	// Low demand parks it again.
	dec, err = mgr.Decide(clusterInput(views, 0.1, 0.0, true))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] != 0 {
		t.Errorf("big cluster online = %d at idle, want parked", dec.OnlineVec[1])
	}
	// Reset clears the gate.
	mgr.Reset()
	dec, err = mgr.Decide(clusterInput(views, 0.1, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] != 0 {
		t.Error("gate state survived Reset")
	}
}

func TestClusteredTunablesValidate(t *testing.T) {
	if err := (ClusterTunables{BigWake: 0, BigPark: 0}).Validate(); err == nil {
		t.Error("zero BigWake accepted")
	}
	if err := (ClusterTunables{BigWake: 0.5, BigPark: 0.5}).Validate(); err == nil {
		t.Error("BigPark >= BigWake accepted")
	}
	domains, _ := clusterDomains(t)
	if _, err := NewClustered(DefaultTunables(), ClusterTunables{BigWake: 2, BigPark: 0.5}, domains); err == nil {
		t.Error("invalid cluster tunables accepted")
	}
	if _, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), nil); err == nil {
		t.Error("empty domain list accepted")
	}
}

// TestClusteredGateRespectsThermalPressure: the same pegged-LITTLE input
// that normally wakes the big cluster must leave it parked when the big
// domain's thermal zone reports a cap engaged or exhausted headroom — the
// thermal driver would clamp fresh cores to the ladder floor anyway.
func TestClusteredGateRespectsThermalPressure(t *testing.T) {
	domains, views := clusterDomains(t)
	hotSignals := [][]policy.ThermalSignal{
		{
			{TempC: 30, HeadroomC: 40, Throttling: false, CapFreq: views[0].Table.Max().Freq},
			{TempC: 46, HeadroomC: -1, Throttling: true, CapFreq: views[1].Table.Min().Freq},
		},
		{ // above trip but the cap has not stepped yet
			{TempC: 30, HeadroomC: 40, Throttling: false, CapFreq: views[0].Table.Max().Freq},
			{TempC: 45.5, HeadroomC: -0.5, Throttling: false, CapFreq: views[1].Table.Max().Freq},
		},
	}
	for i, therm := range hotSignals {
		mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
		if err != nil {
			t.Fatal(err)
		}
		in := clusterInput(views, 1.0, 0, false)
		in.Thermal = therm
		dec, err := mgr.Decide(in)
		if err != nil {
			t.Fatal(err)
		}
		if dec.OnlineVec[1] != 0 {
			t.Errorf("case %d: big cluster woken with %d cores while thermally pressured", i, dec.OnlineVec[1])
		}
	}
	// Once the zone recovers, the same pressure wakes it again.
	mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
	if err != nil {
		t.Fatal(err)
	}
	in := clusterInput(views, 1.0, 0, false)
	in.Thermal = []policy.ThermalSignal{
		{TempC: 30, HeadroomC: 40, CapFreq: views[0].Table.Max().Freq},
		{TempC: 35, HeadroomC: 10, CapFreq: views[1].Table.Max().Freq},
	}
	dec, err := mgr.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] < 1 {
		t.Errorf("big cluster online = %d with cool zone and pegged LITTLE, want >= 1", dec.OnlineVec[1])
	}
}

// TestClusteredRunningDomainSurvivesHeat: thermal pressure gates only the
// wake path; an already-running big domain keeps running (the sim's clamp
// and the domain's own MobiCore handle the cap).
func TestClusteredRunningDomainSurvivesHeat(t *testing.T) {
	domains, views := clusterDomains(t)
	mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
	if err != nil {
		t.Fatal(err)
	}
	// Wake it with a cool zone first.
	in := clusterInput(views, 1.0, 0, false)
	if _, err := mgr.Decide(in); err != nil {
		t.Fatal(err)
	}
	// Now hot and busy: demand still needs it, so it stays managed.
	in = clusterInput(views, 1.0, 0.9, true)
	in.Thermal = []policy.ThermalSignal{
		{TempC: 30, HeadroomC: 40, CapFreq: views[0].Table.Max().Freq},
		{TempC: 46, HeadroomC: -1, Throttling: true, CapFreq: views[1].Table.Min().Freq},
	}
	dec, err := mgr.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] < 1 {
		t.Errorf("running hot big domain parked by the gate, want it left managed")
	}
}
