package core

import (
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
)

// nexus6pManager builds the clustered manager with the platform EM model
// attached — the facade's PolicyMobiCore construction on big.LITTLE.
func nexus6pManager(t *testing.T) (*Clustered, platform.Platform, []policy.ClusterView) {
	t.Helper()
	plat := platform.Nexus6P()
	mgr, err := NewClusteredForPlatform(plat, DefaultTunables(), DefaultClusterTunables(), true)
	if err != nil {
		t.Fatal(err)
	}
	specs := plat.ClusterSpecs()
	views := make([]policy.ClusterView, len(specs))
	next := 0
	for ci, cs := range specs {
		ids := make([]int, cs.NumCores)
		for i := range ids {
			ids[i] = next
			next++
		}
		views[ci] = policy.ClusterView{Name: cs.Name, Table: cs.Table, CoreIDs: ids}
	}
	return mgr, plat, views
}

func nexus6pInput(views []policy.ClusterView, littleUtil float64) policy.Input {
	n := 8
	in := policy.Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     make([]float64, n),
		Online:   make([]bool, n),
		CurFreq:  make([]soc.Hz, n),
		Quota:    1,
		Clusters: views,
	}
	for _, id := range views[0].CoreIDs {
		in.Util[id] = littleUtil
		in.Online[id] = true
		in.CurFreq[id] = views[0].Table.Max().Freq
	}
	for _, id := range views[1].CoreIDs {
		in.Online[id] = false
		in.CurFreq[id] = views[1].Table.Min().Freq
	}
	return in
}

// TestEMGateVetoesLoadWake: at 90% LITTLE utilization the load threshold
// alone would wake the big cluster, but the EM model prices the split as
// more expensive than staying LITTLE-only (the A57s leak ~4× the A53s), so
// the energy-aware gate keeps it parked.
func TestEMGateVetoesLoadWake(t *testing.T) {
	mgr, _, views := nexus6pManager(t)
	dec, err := mgr.Decide(nexus6pInput(views, 0.90))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] != 0 {
		t.Errorf("big cluster online = %d at 90%% LITTLE load with EM attached, want EM veto (parked)", dec.OnlineVec[1])
	}
	// The identical observation without the model must wake — the veto is
	// the model's doing, not a tunables change.
	bare, err := NewClusteredForPlatform(platform.Nexus6P(), DefaultTunables(), DefaultClusterTunables(), false)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = bare.Decide(nexus6pInput(views, 0.90))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] < 1 {
		t.Errorf("model-free gate parked the big cluster at 90%% LITTLE load, want load-threshold wake")
	}
}

// TestEMGateWakesOnPeg: a pegged LITTLE core is a latency signal and must
// wake the big cluster regardless of what the model predicts (§4.0's
// performance constraint outranks energy).
func TestEMGateWakesOnPeg(t *testing.T) {
	mgr, _, views := nexus6pManager(t)
	dec, err := mgr.Decide(nexus6pInput(views, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineVec[1] < 1 {
		t.Errorf("big cluster online = %d under a pegged LITTLE core, want >= 1 despite the EM veto path", dec.OnlineVec[1])
	}
}

// TestEMWakeWorthwhileCapacity: demand beyond the LITTLE cluster's whole
// ladder must always justify a wake — capacity necessity overrides the
// price comparison.
func TestEMWakeWorthwhileCapacity(t *testing.T) {
	mgr, plat, _ := nexus6pManager(t)
	specs := plat.ClusterSpecs()
	littleCap := float64(specs[0].NumCores) * float64(specs[0].Table.Max().Freq)
	if mgr.emWakeWorthwhile(1, littleCap*1.2, littleCap) != true {
		t.Error("demand 20% beyond LITTLE capacity did not justify a wake")
	}
	if mgr.emWakeWorthwhile(1, littleCap*0.85, littleCap) {
		t.Error("fits-on-LITTLE demand justified a wake the model prices as costlier")
	}
}

// TestEMGatePricesAwakeSet: on the three-cluster profile the wake veto
// must account for domains that are already awake — demand beyond silver's
// capacity justifies waking gold, but once gold is awake with spare
// capacity the same demand must NOT count as a capacity necessity for the
// prime core.
func TestEMGatePricesAwakeSet(t *testing.T) {
	plat := platform.SD855()
	mgr, err := NewClusteredForPlatform(plat, DefaultTunables(), DefaultClusterTunables(), true)
	if err != nil {
		t.Fatal(err)
	}
	specs := plat.ClusterSpecs()
	silverCap := float64(specs[0].NumCores) * float64(specs[0].Table.Max().Freq)
	demand := silverCap * 1.12 // beyond silver, far under silver+gold

	// Everything parked: the demand is a capacity necessity for gold.
	if !mgr.emWakeWorthwhile(1, demand, silverCap) {
		t.Error("overflow demand with every big domain parked did not justify waking gold")
	}
	// Gold awake: its spare capacity absorbs the overflow, so waking the
	// expensive 1-core prime domain must be vetoed.
	mgr.bigOn[1] = true
	if mgr.emWakeWorthwhile(2, demand, silverCap) {
		t.Error("prime wake not vetoed while the awake gold cluster can absorb the overflow")
	}
	// Demand beyond silver+gold is a genuine necessity for prime too.
	goldCap := float64(specs[1].NumCores) * float64(specs[1].Table.Max().Freq)
	if !mgr.emWakeWorthwhile(2, (silverCap+goldCap)*1.05, silverCap) {
		t.Error("demand beyond silver+gold capacity did not justify waking prime")
	}
	// An unrealizable split must not wake on price: with gold parked, an
	// overflow slightly beyond the prime core's whole ladder cannot be
	// absorbed, so the gate stays with the feasible silver-only serving.
	mgr.bigOn[1] = false
	primeCap := float64(specs[2].NumCores) * float64(specs[2].Table.Max().Freq)
	infeasible := DefaultClusterTunables().BigPark*silverCap + primeCap*1.02
	if infeasible >= silverCap {
		t.Fatalf("fixture broken: %v not under silver capacity %v", infeasible, silverCap)
	}
	if mgr.emWakeWorthwhile(2, infeasible, silverCap) {
		t.Error("prime woken on an unrealizable split (overflow beyond its capacity)")
	}
}

// TestAttachEnergyModelValidation: a model whose domain count does not
// match the manager is rejected.
func TestAttachEnergyModelValidation(t *testing.T) {
	domains, _ := clusterDomains(t)
	mgr, err := NewClustered(DefaultTunables(), DefaultClusterTunables(), domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AttachEnergyModel(nil); err == nil {
		t.Error("nil model accepted")
	}
	single, err := platform.Nexus5().Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AttachEnergyModel(single.EM); err == nil {
		t.Error("single-domain model accepted by a two-domain manager")
	}
	two, err := platform.Nexus6P().Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AttachEnergyModel(two.EM); err != nil {
		t.Errorf("matching model rejected: %v", err)
	}
}
