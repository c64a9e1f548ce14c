package core

import (
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

func nexus6pOracleParts(t *testing.T) (float64, []*power.Model, []*soc.OPPTable, []int) {
	t.Helper()
	plat := platform.Nexus6P()
	specs := plat.ClusterSpecs()
	models := make([]*power.Model, len(specs))
	tables := make([]*soc.OPPTable, len(specs))
	counts := make([]int, len(specs))
	for ci, cs := range specs {
		m, err := power.NewModel(cs.Power, cs.Table)
		if err != nil {
			t.Fatal(err)
		}
		models[ci] = m
		tables[ci] = cs.Table
		counts[ci] = cs.NumCores
	}
	return plat.Power.BaseWatts, models, tables, counts
}

// TestChooseClusterOperatingPointsPrefersLittle: a demand that fits the
// efficiency cluster must not buy A57 leakage — the joint optimum parks
// the big cluster entirely.
func TestChooseClusterOperatingPointsPrefersLittle(t *testing.T) {
	base, models, tables, counts := nexus6pOracleParts(t)
	demand := 1.0e9 // one LITTLE core at ~2/3 ladder serves this
	choice, watts, err := ChooseClusterOperatingPoints(base, models, tables, counts, demand)
	if err != nil {
		t.Fatal(err)
	}
	if choice[1].Cores != 0 {
		t.Errorf("big cluster got %d cores for a LITTLE-sized demand", choice[1].Cores)
	}
	if choice[0].Cores < 1 {
		t.Error("no LITTLE cores chosen")
	}
	capacity := float64(choice[0].Cores) * float64(choice[0].OPP.Freq)
	if capacity < demand {
		t.Errorf("chosen capacity %.3g below demand %.3g", capacity, demand)
	}
	if watts <= 0 {
		t.Errorf("non-positive predicted watts %v", watts)
	}
}

// TestChooseClusterOperatingPointsSpansClusters: a demand beyond the whole
// LITTLE ladder forces big cores into the joint optimum, and the combined
// capacity still serves it.
func TestChooseClusterOperatingPointsSpansClusters(t *testing.T) {
	base, models, tables, counts := nexus6pOracleParts(t)
	littleCap := float64(counts[0]) * float64(tables[0].Max().Freq)
	demand := littleCap * 1.5
	choice, _, err := ChooseClusterOperatingPoints(base, models, tables, counts, demand)
	if err != nil {
		t.Fatal(err)
	}
	if choice[1].Cores < 1 {
		t.Errorf("demand %.3g exceeds LITTLE capacity %.3g but big cluster got no cores", demand, littleCap)
	}
	var capacity float64
	for ci, ch := range choice {
		capacity += float64(ch.Cores) * float64(ch.OPP.Freq)
		if ch.Cores < 0 || ch.Cores > counts[ci] {
			t.Errorf("cluster %d cores %d outside [0,%d]", ci, ch.Cores, counts[ci])
		}
	}
	if capacity < demand {
		t.Errorf("joint capacity %.3g below demand %.3g", capacity, demand)
	}
}

// TestChooseClusterOperatingPointsOverload: demand beyond the whole SoC
// falls back to everything flat out rather than erroring.
func TestChooseClusterOperatingPointsOverload(t *testing.T) {
	base, models, tables, counts := nexus6pOracleParts(t)
	choice, _, err := ChooseClusterOperatingPoints(base, models, tables, counts, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	for ci, ch := range choice {
		if ch.Cores != counts[ci] || ch.OPP.Freq != tables[ci].Max().Freq {
			t.Errorf("cluster %d not flat out under overload: %d cores at %v", ci, ch.Cores, ch.OPP.Freq)
		}
	}
}

// TestClusteredOracleDecide: the manager emits a valid clustered decision
// on the heterogeneous platform — the configuration the homogeneous oracle
// used to reject.
func TestClusteredOracleDecide(t *testing.T) {
	plat := platform.Nexus6P()
	o, err := NewClusteredOracleForPlatform(plat, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	specs := plat.ClusterSpecs()
	views := make([]policy.ClusterView, len(specs))
	id := 0
	for ci, cs := range specs {
		ids := make([]int, cs.NumCores)
		for j := range ids {
			ids[j] = id
			id++
		}
		views[ci] = policy.ClusterView{Name: cs.Name, Table: cs.Table, CoreIDs: ids}
	}
	in := policy.Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     make([]float64, plat.NumCores),
		Online:   make([]bool, plat.NumCores),
		CurFreq:  make([]soc.Hz, plat.NumCores),
		Quota:    1,
		Clusters: views,
	}
	for _, idc := range views[0].CoreIDs {
		in.Online[idc] = true
		in.Util[idc] = 0.9
		in.CurFreq[idc] = views[0].Table.Max().Freq
	}
	for _, idc := range views[1].CoreIDs {
		in.CurFreq[idc] = views[1].Table.Min().Freq
	}
	dec, err := o.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(views, plat.NumCores); err != nil {
		t.Fatalf("clustered oracle produced invalid decision: %v", err)
	}
	if dec.OnlineVec == nil {
		t.Fatal("clustered oracle should allocate per cluster")
	}
	total := 0
	for _, n := range dec.OnlineVec {
		total += n
	}
	if total < 1 {
		t.Error("oracle parked every core")
	}
}
