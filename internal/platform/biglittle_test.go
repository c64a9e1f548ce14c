package platform

import (
	"testing"

	"mobicore/internal/power"
	"mobicore/internal/soc"
)

func TestNexus6PProfile(t *testing.T) {
	p := Nexus6P()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Heterogeneous() {
		t.Fatal("Nexus 6P should be heterogeneous")
	}
	specs := p.ClusterSpecs()
	if len(specs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(specs))
	}
	if specs[0].Name != "LITTLE" || specs[1].Name != "big" {
		t.Errorf("cluster order = %s,%s; want LITTLE first so it owns the low core ids",
			specs[0].Name, specs[1].Name)
	}
	if specs[0].Table.Max().Freq >= specs[1].Table.Max().Freq {
		t.Error("LITTLE top frequency should be below the big cluster's")
	}
	if specs[0].NumCores+specs[1].NumCores != p.NumCores {
		t.Error("cluster cores must sum to NumCores")
	}
	// The big cluster burns far more than LITTLE at its respective top bin.
	littleModel, err := power.NewModel(specs[0].Power, specs[0].Table)
	if err != nil {
		t.Fatal(err)
	}
	bigModel, err := power.NewModel(specs[1].Power, specs[1].Table)
	if err != nil {
		t.Fatal(err)
	}
	littleW := littleModel.CoreWatts(soc.StateActive, specs[0].Table.Max(), 1)
	bigW := bigModel.CoreWatts(soc.StateActive, specs[1].Table.Max(), 1)
	if bigW < 2*littleW {
		t.Errorf("big core full blast %.3f W vs LITTLE %.3f W: want a clear efficiency gap", bigW, littleW)
	}
}

func TestClusterSumValidation(t *testing.T) {
	p := Nexus6P()
	p.NumCores = 7 // clusters still sum to 8
	if err := p.Validate(); err == nil {
		t.Error("cluster/core-count mismatch accepted")
	}
}

func TestHomogeneousClusterSpecs(t *testing.T) {
	p := Nexus5()
	if p.Heterogeneous() {
		t.Fatal("Nexus 5 should be homogeneous")
	}
	specs := p.ClusterSpecs()
	if len(specs) != 1 {
		t.Fatalf("clusters = %d, want 1 synthesized", len(specs))
	}
	if specs[0].NumCores != p.NumCores || specs[0].Table != p.Table {
		t.Error("synthesized cluster must mirror the top-level fields")
	}
}

// TestSystemModelMatchesFlatModel locks the refactor invariant: on a
// homogeneous platform the per-cluster SystemModel reproduces the original
// single-Model evaluation bit for bit.
func TestSystemModelMatchesFlatModel(t *testing.T) {
	p := Nexus5()
	flat, err := power.NewModel(p.Power, p.Table)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.NewSystemModel()
	if err != nil {
		t.Fatal(err)
	}
	loads := []power.CoreLoad{
		{State: soc.StateActive, OPP: p.Table.Max(), Util: 0.8},
		{State: soc.StateActive, OPP: p.Table.Min(), Util: 0.2},
		{State: soc.StateIdle, OPP: p.Table.Min(), Util: 0},
		{State: soc.StateOffline},
	}
	if got, want := sys.SystemWatts(loads), flat.SystemWatts(loads); got != want {
		t.Errorf("SystemModel %.9f W, flat Model %.9f W: must match exactly", got, want)
	}
}

// TestAliasAndByNameAgree locks the two platform spellings together so the
// CLI aliases and display names cannot drift again: every profile resolves
// through ByName under both its alias and its display name, and Alias is
// the inverse of the display name.
func TestAliasAndByNameAgree(t *testing.T) {
	for alias, f := range Profiles() {
		display := f().Name
		byAlias, err := ByName(alias)
		if err != nil {
			t.Errorf("ByName(%q): %v", alias, err)
			continue
		}
		byDisplay, err := ByName(display)
		if err != nil {
			t.Errorf("ByName(%q): %v", display, err)
			continue
		}
		if byAlias.Name != display || byDisplay.Name != display {
			t.Errorf("alias %q and display %q resolve to %q / %q", alias, display, byAlias.Name, byDisplay.Name)
		}
		if got := Alias(display); got != alias {
			t.Errorf("Alias(%q) = %q, want %q", display, got, alias)
		}
	}
	// Every Figure 1 handset must be reachable by alias.
	for _, p := range All() {
		if Alias(p.Name) == "" {
			t.Errorf("platform %q has no CLI alias", p.Name)
		}
	}
	if _, err := ByName("warp-phone"); err == nil {
		t.Error("unknown name accepted")
	}
}
