package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/stack"
)

// threeCore is a custom homogeneous profile with a core count that is
// not a power of two: a Nexus 5 with one core removed.
func threeCore() platform.Platform {
	p := platform.Nexus5()
	p.Name = "custom-3core"
	p.NumCores = 3
	return p
}

// TestStacksStoreGolden locks the cells.jsonl bytes of every named stack
// plus the composed stacks `mobifleet -policies all` adds, on the
// homogeneous profiles (two shipped, one custom 3-core), so a change to
// how a stack is built on a one-cluster SoC must keep every stored byte.
// Regenerate with -update-golden after an intentional physics change.
func TestStacksStoreGolden(t *testing.T) {
	names := append(stack.Names(),
		"conservative+load", "interactive+load", "schedutil+load",
		"pin-max+mpdecision", "ondemand+offline")
	policies := make([]PolicyFactory, len(names))
	for i, n := range names {
		policies[i] = Policy(n)
	}
	light := busyFactory(0.15, 2)
	light.Name = "busyloop-light"
	dir := t.TempDir()
	spec := Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.NexusS(), threeCore()},
		Policies:  policies,
		Workloads: []WorkloadFactory{busyFactory(0.5, 4), light},
		Seeds:     []int64{1},
		Duration:  2 * time.Second,
		Parallel:  4,
		StoreDir:  dir,
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, store.CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stacks_cells_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cells.jsonl drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
