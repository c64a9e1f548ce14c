package stack

import (
	"math/rand"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
)

// TestBuildNamedStacks: every named stack resolves on both a homogeneous
// and a heterogeneous profile, and each call returns a distinct manager
// instance (managers are stateful; the fleet driver builds one per cell).
func TestBuildNamedStacks(t *testing.T) {
	for _, plat := range []platform.Platform{platform.Nexus5(), platform.Nexus6P()} {
		for _, name := range append(Names(), "", "interactive+load", "userspace+fixed-2",
			"pin-max+mpdecision", "pin-min+offline", "pin-mid+load", "ondemand+offline") {
			a, err := Build(name, plat)
			if err != nil {
				t.Fatalf("Build(%q, %s): %v", name, plat.Name, err)
			}
			b, err := Build(name, plat)
			if err != nil {
				t.Fatalf("Build(%q, %s) second call: %v", name, plat.Name, err)
			}
			if a == b {
				t.Errorf("Build(%q, %s) returned the same instance twice", name, plat.Name)
			}
		}
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	for _, name := range []string{"nope", "ondemand", "ondemand+", "+load", "ondemand+nope", "pin-low+load"} {
		if _, err := Build(name, platform.Nexus5()); err == nil {
			t.Errorf("Build(%q) accepted", name)
		}
	}
}

// decideInputs builds a cycle of steady-state observations of plat: every
// core online at a random ladder frequency and a random load, heavy and
// light in turn so the sequence wakes and parks big clusters, with cool
// thermal telemetry.
func decideInputs(t *testing.T, plat platform.Platform) []policy.Input {
	t.Helper()
	comp, err := plat.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	views := make([]policy.ClusterView, len(comp.Specs))
	thermal := make([]policy.ThermalSignal, len(comp.Specs))
	for ci, cs := range comp.Specs {
		views[ci] = policy.ClusterView{Name: cs.Name, Table: cs.Table, CoreIDs: comp.ClusterCoreIDs[ci]}
		thermal[ci] = policy.ThermalSignal{TempC: 30, HeadroomC: 10, CapFreq: cs.Table.Max().Freq}
	}
	rng := rand.New(rand.NewSource(1))
	ins := make([]policy.Input, 16)
	for k := range ins {
		in := policy.Input{
			Period:   50 * time.Millisecond,
			Util:     make([]float64, plat.NumCores),
			Online:   make([]bool, plat.NumCores),
			CurFreq:  make([]soc.Hz, plat.NumCores),
			Quota:    1,
			Clusters: views,
			Thermal:  thermal,
		}
		for _, v := range views {
			for _, id := range v.CoreIDs {
				in.Util[id] = rng.Float64() / float64(1+9*(k%2))
				in.Online[id] = true
				in.CurFreq[id] = v.Table.At(rng.Intn(v.Table.Len())).Freq
			}
		}
		ins[k] = in
	}
	return ins
}

// TestDecideAllocs is the policy layer's allocation budget: a warm
// MobiCore manager allocates nothing per Decide, on one, two and three
// clusters, and a composed stock stack allocates nothing beyond its
// governors' own Target output (one slice per domain).
func TestDecideAllocs(t *testing.T) {
	for _, plat := range []platform.Platform{platform.Nexus5(), platform.Nexus6P(), platform.SD855()} {
		ins := decideInputs(t, plat)
		for _, name := range []string{MobiCore, MobiCoreThreshold, AndroidDefault, "schedutil+load", "pin-max+mpdecision"} {
			mgr, err := Build(name, plat)
			if err != nil {
				t.Fatal(err)
			}
			k, now := 0, time.Duration(0)
			decide := func() {
				now += 50 * time.Millisecond
				in := ins[k%len(ins)]
				in.Now = now
				k++
				if _, err := mgr.Decide(in); err != nil {
					t.Fatal(err)
				}
			}
			for range ins {
				decide() // grow the manager's buffers
			}
			budget := 0.0
			if _, ok := mgr.(*policy.Composite); ok {
				budget = float64(len(ins[0].Clusters))
			}
			if allocs := testing.AllocsPerRun(200, decide); allocs > budget {
				t.Errorf("%s on %s: Decide allocates %v objects, budget %v", name, plat.Name, allocs, budget)
			}
		}
	}
}
