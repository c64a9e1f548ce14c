package policy

import (
	"slices"
	"testing"
	"time"

	"mobicore/internal/cpufreq"
	"mobicore/internal/hotplug"
	"mobicore/internal/soc"
)

func table(t *testing.T) *soc.OPPTable {
	t.Helper()
	return soc.MSM8974Table()
}

func goodInput(t *testing.T) Input {
	t.Helper()
	return Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     []float64{0.5, 0.5, 0.5, 0.5},
		Online:   []bool{true, true, true, true},
		CurFreq:  []soc.Hz{300 * soc.MHz, 300 * soc.MHz, 300 * soc.MHz, 300 * soc.MHz},
		Quota:    1,
		Clusters: cpuViews(),
	}
}

// cpuViews is the one-domain topology of a 4-core homogeneous SoC.
func cpuViews() []ClusterView {
	return []ClusterView{{Name: "cpu", Table: soc.MSM8974Table(), CoreIDs: []int{0, 1, 2, 3}}}
}

func TestInputValidate(t *testing.T) {
	good := goodInput(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Input)
	}{
		{"nil table", func(in *Input) { in.Clusters[0].Table = nil }},
		{"no clusters", func(in *Input) { in.Clusters = nil }},
		{"core id out of range", func(in *Input) { in.Clusters[0].CoreIDs = []int{0, 1, 2, 4} }},
		{"core ids not one run", func(in *Input) { in.Clusters[0].CoreIDs = []int{0, 2, 1, 3} }},
		{"no cores", func(in *Input) { in.Util = nil }},
		{"length mismatch", func(in *Input) { in.Online = in.Online[:2] }},
		{"quota zero", func(in *Input) { in.Quota = 0 }},
		{"quota above one", func(in *Input) { in.Quota = 1.1 }},
		{"util above one", func(in *Input) { in.Util[0] = 1.5 }},
		{"negative util", func(in *Input) { in.Util[0] = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := goodInput(t)
			tt.mutate(&in)
			if err := in.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestDecisionValidate(t *testing.T) {
	views := cpuViews()
	good := Decision{
		TargetFreq:  []soc.Hz{300 * soc.MHz, 300 * soc.MHz, 300 * soc.MHz, 300 * soc.MHz},
		OnlineCores: 2,
		Quota:       1,
	}
	if err := good.Validate(views, 4); err != nil {
		t.Fatalf("good decision rejected: %v", err)
	}
	bad := good
	bad.TargetFreq = good.TargetFreq[:3]
	if err := bad.Validate(views, 4); err == nil {
		t.Error("wrong frequency count accepted")
	}
	bad = good
	bad.TargetFreq = []soc.Hz{301 * soc.MHz, 300 * soc.MHz, 300 * soc.MHz, 300 * soc.MHz}
	if err := bad.Validate(views, 4); err == nil {
		t.Error("non-OPP frequency accepted")
	}
	bad = good
	bad.OnlineCores = 0
	if err := bad.Validate(views, 4); err == nil {
		t.Error("zero cores accepted")
	}
	bad = good
	bad.OnlineCores = 5
	if err := bad.Validate(views, 4); err == nil {
		t.Error("too many cores accepted")
	}
	bad = good
	bad.Quota = 0
	if err := bad.Validate(views, 4); err == nil {
		t.Error("zero quota accepted")
	}
}

func TestComposeValidation(t *testing.T) {
	gov, err := cpufreq.New("ondemand", table(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compose(nil, hotplug.MPDecision{}); err == nil {
		t.Error("no governor accepted")
	}
	if _, err := Compose([]cpufreq.Governor{nil}, hotplug.MPDecision{}); err == nil {
		t.Error("nil governor accepted")
	}
	if _, err := Compose([]cpufreq.Governor{gov}, nil); err == nil {
		t.Error("nil hotplug accepted")
	}
	c, err := Compose([]cpufreq.Governor{gov}, hotplug.MPDecision{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Name(), "ondemand+mpdecision"; got != want {
		t.Errorf("name = %q, want %q", got, want)
	}
}

func TestCompositeQuotaAlwaysFull(t *testing.T) {
	mgr, err := AndroidDefault(table(t))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mgr.Decide(goodInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Quota != 1 {
		t.Errorf("stock Android quota = %v, want 1 (it never touches bandwidth)", dec.Quota)
	}
	if err := dec.Validate(cpuViews(), 4); err != nil {
		t.Errorf("composite produced invalid decision: %v", err)
	}
}

func TestCompositeUncoordinated(t *testing.T) {
	// The point of the thesis: governor and hotplug act on the same
	// input without seeing each other's decision. A high-load input
	// must raise frequency AND add a core independently.
	mgr, err := AndroidDefault(table(t))
	if err != nil {
		t.Fatal(err)
	}
	in := goodInput(t)
	in.Util = []float64{0.9, 0.9, 0.9, 0}
	in.Online = []bool{true, true, true, false}
	dec, err := mgr.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineCores != 4 {
		t.Errorf("high load should online the 4th core, got %d", dec.OnlineCores)
	}
	if dec.TargetFreq[0] != table(t).Max().Freq {
		t.Errorf("high load should burst to f_max, got %v", dec.TargetFreq[0])
	}
}

func TestPinned(t *testing.T) {
	tbl := table(t)
	mgr, err := Pinned(tbl, 960_000*soc.KHz, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mgr.Decide(goodInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.OnlineCores != 2 {
		t.Errorf("pinned cores = %d, want 2", dec.OnlineCores)
	}
	for i, f := range dec.TargetFreq {
		if f != 960_000*soc.KHz {
			t.Errorf("pinned freq core %d = %v, want 960MHz", i, f)
		}
	}
	if _, err := Pinned(tbl, 961*soc.MHz, 2); err == nil {
		t.Error("non-OPP pin accepted")
	}
	if _, err := Pinned(tbl, 960_000*soc.KHz, 0); err == nil {
		t.Error("zero-core pin accepted")
	}
}

func TestCompositeReset(t *testing.T) {
	mgr, err := AndroidDefault(table(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Decide(goodInput(t)); err != nil {
		t.Fatal(err)
	}
	mgr.Reset() // must not panic and must leave the manager usable
	if _, err := mgr.Decide(goodInput(t)); err != nil {
		t.Fatalf("post-reset decide failed: %v", err)
	}
}

// TestInputValidateThermal: a thermal-signal slice must match the domain
// count; nil means no telemetry and is always acceptable.
func TestInputValidateThermal(t *testing.T) {
	in := goodInput(t)
	if err := in.Validate(); err != nil {
		t.Fatalf("input without thermal telemetry rejected: %v", err)
	}
	fill := func(n int) []ThermalSignal {
		out := make([]ThermalSignal, n)
		for i := range out {
			out[i] = ThermalSignal{TempC: 30, HeadroomC: 10, CapFreq: in.Clusters[0].Table.Max().Freq}
		}
		return out
	}
	in.Thermal = fill(len(in.Clusters))
	if err := in.Validate(); err != nil {
		t.Fatalf("matching thermal telemetry rejected: %v", err)
	}
	in.Thermal = fill(len(in.Clusters) + 1)
	if err := in.Validate(); err == nil {
		t.Error("mismatched thermal telemetry accepted")
	}
}

// TestInputValidateRejectsUnfilledThermal: a zero-valued signal (which
// would read as "zero headroom" and park big clusters) must be rejected.
func TestInputValidateRejectsUnfilledThermal(t *testing.T) {
	in := goodInput(t)
	in.Thermal = make([]ThermalSignal, len(in.Clusters)) // never filled
	if err := in.Validate(); err == nil {
		t.Error("unfilled thermal signals accepted")
	}
}

// recordingGov is a governor that keeps the input of its last Target and
// answers each core's current frequency.
type recordingGov struct{ in cpufreq.Input }

func (g *recordingGov) Name() string { return "recording" }
func (g *recordingGov) Reset()       {}
func (g *recordingGov) Target(in cpufreq.Input) ([]soc.Hz, error) {
	g.in = in
	return in.CurFreq, nil
}

// TestCompositeHandsEachGovernorItsDomain: each domain's governor reads
// the input's own sub-slices for the domain's run of core ids — the same
// backing arrays, no copy — with the domain's table, and its targets land
// on those cores.
func TestCompositeHandsEachGovernorItsDomain(t *testing.T) {
	tbl := table(t)
	in := Input{
		Now:      time.Second,
		Period:   50 * time.Millisecond,
		Util:     []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Online:   []bool{true, false, true, true, false},
		CurFreq:  []soc.Hz{1, 2, 3, 4, 5},
		Quota:    1,
		Clusters: []ClusterView{{Name: "a", Table: tbl, CoreIDs: []int{0, 1}}, {Name: "b", Table: tbl, CoreIDs: []int{2, 3, 4}}},
	}
	plug, err := hotplug.NewFixed(5)
	if err != nil {
		t.Fatal(err)
	}
	govs := []*recordingGov{{}, {}}
	mgr, err := Compose([]cpufreq.Governor{govs[0], govs[1]}, plug)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mgr.Decide(in)
	if err != nil {
		t.Fatal(err)
	}
	for ci, v := range in.Clusters {
		got := govs[ci].in
		lo, hi := v.CoreIDs[0], v.CoreIDs[len(v.CoreIDs)-1]+1
		if len(got.Util) != hi-lo || &got.Util[0] != &in.Util[lo] || &got.Online[0] != &in.Online[lo] || &got.CurFreq[0] != &in.CurFreq[lo] {
			t.Errorf("governor %s got %+v, not the input's cores [%d,%d)", v.Name, got, lo, hi)
		}
		if got.Table != v.Table || got.Now != in.Now || got.Period != in.Period {
			t.Errorf("governor %s got table %p, now %v, period %v", v.Name, got.Table, got.Now, got.Period)
		}
	}
	if !slices.Equal(dec.TargetFreq, in.CurFreq) {
		t.Errorf("targets %v, want each domain's answers on its cores %v", dec.TargetFreq, in.CurFreq)
	}
}
