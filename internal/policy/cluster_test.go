package policy

import (
	"testing"
	"time"

	"mobicore/internal/cpufreq"
	"mobicore/internal/hotplug"
	"mobicore/internal/soc"
)

func clusterViews(t *testing.T) ([]ClusterView, *soc.OPPTable, *soc.OPPTable) {
	t.Helper()
	little, err := soc.UniformTable(4, 200*soc.MHz, 1000*soc.MHz, 0.80, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	big, err := soc.UniformTable(5, 300*soc.MHz, 2000*soc.MHz, 0.85, 1.20)
	if err != nil {
		t.Fatal(err)
	}
	views := []ClusterView{
		{Name: "LITTLE", Table: little, CoreIDs: []int{0, 1}},
		{Name: "big", Table: big, CoreIDs: []int{2, 3}},
	}
	return views, little, big
}

func TestValidateClustered(t *testing.T) {
	views, little, big := clusterViews(t)
	ok := Decision{
		TargetFreq: []soc.Hz{little.Min().Freq, little.Max().Freq, big.Min().Freq, big.Max().Freq},
		OnlineVec:  []int{2, 0},
		Quota:      1,
	}
	if err := ok.Validate(views, 4); err != nil {
		t.Fatalf("valid clustered decision rejected: %v", err)
	}

	bad := ok
	bad.TargetFreq = []soc.Hz{big.Max().Freq, little.Max().Freq, big.Min().Freq, big.Max().Freq}
	if err := bad.Validate(views, 4); err == nil {
		t.Error("big-only frequency on a LITTLE core accepted")
	}

	bad = ok
	bad.OnlineVec = []int{0, 0}
	if err := bad.Validate(views, 4); err == nil {
		t.Error("all-parked online vector accepted")
	}

	bad = ok
	bad.OnlineVec = []int{3, 0}
	if err := bad.Validate(views, 4); err == nil {
		t.Error("online count beyond cluster size accepted")
	}

	bad = ok
	bad.OnlineVec = []int{2}
	if err := bad.Validate(views, 4); err == nil {
		t.Error("short online vector accepted")
	}

	// Flat decisions still validate through the clustered path.
	flat := Decision{
		TargetFreq:  []soc.Hz{little.Min().Freq, little.Min().Freq, big.Min().Freq, big.Min().Freq},
		OnlineCores: 4,
		Quota:       1,
	}
	if err := flat.Validate(views, 4); err != nil {
		t.Errorf("flat decision rejected: %v", err)
	}
}

func TestComposeClusteredPerDomainGovernors(t *testing.T) {
	views, little, big := clusterViews(t)
	plug, err := hotplug.NewFixed(4)
	if err != nil {
		t.Fatal(err)
	}
	var govs []cpufreq.Governor
	for _, tab := range []*soc.OPPTable{little, big} {
		g, err := cpufreq.New("performance", tab)
		if err != nil {
			t.Fatal(err)
		}
		govs = append(govs, g)
	}
	mgr, err := Compose(govs, plug)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     []float64{0.5, 0.5, 0.5, 0.5},
		Online:   []bool{true, true, true, true},
		CurFreq:  []soc.Hz{little.Min().Freq, little.Min().Freq, big.Min().Freq, big.Min().Freq},
		Quota:    1,
		Clusters: views,
	}
	dec, err := mgr.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(views, 4); err != nil {
		t.Fatalf("clustered composite produced invalid decision: %v", err)
	}
	one, err := Compose(govs[:1], plug)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Decide(in); err == nil {
		t.Error("one-domain composite accepted a two-cluster input")
	}
	// The performance governor pins each domain to its own maximum — the
	// proof that each cluster got its own governor instance and table.
	if dec.TargetFreq[0] != little.Max().Freq || dec.TargetFreq[1] != little.Max().Freq {
		t.Errorf("LITTLE targets = %v, want cluster max %v", dec.TargetFreq[:2], little.Max().Freq)
	}
	if dec.TargetFreq[2] != big.Max().Freq || dec.TargetFreq[3] != big.Max().Freq {
		t.Errorf("big targets = %v, want cluster max %v", dec.TargetFreq[2:], big.Max().Freq)
	}
}
