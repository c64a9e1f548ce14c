package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/platform"
	"mobicore/internal/scenario"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// workloadDef is one benchmark workload. Every workload is a fleet matrix
// built from the seed: the session workloads run its cells back to back on
// one goroutine (the single-session user's view), the fleet workloads run
// it through fleet.Run in key-range shards into one store (the study
// user's view). The traced run probes the same cells one tick at a time.
type workloadDef struct {
	name string
	plat func() platform.Platform
	// fleet runs the matrix through fleet.Run in shards sequential shards;
	// otherwise its cells run as standalone sessions, cycling.
	fleet  bool
	shards int
	// traces turns on per-cell gzip power-trace export.
	traces bool
	// build generates the workload's inputs from the seed under dir and
	// returns its matrix.
	build func(seed int64, plat platform.Platform, dir string) (fleet.Spec, error)
}

var workloads = []workloadDef{
	{name: "session-dayinlife", plat: platform.Nexus6P, build: buildDayInLife},
	{name: "session-noisy-eas", plat: platform.SD855, build: buildNoisyEAS},
	{name: "fleet-traced-cohort", plat: platform.Nexus5, fleet: true, shards: 4, traces: true, build: buildCohort},
	{name: "fleet-store-churn", plat: platform.Nexus5, fleet: true, shards: 32, build: buildChurn},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// dayInLifePool is how many distinct recorded users the session-dayinlife
// workload cycles through: enough for its percentiles, few enough that a
// run repeats every user a dozen times or more (see endToEnd).
const dayInLifePool = 64

// buildDayInLife: Nexus 6P under MobiCore, 60 s sessions, each replaying a
// recorded day-in-the-life trace generated from seed+i. Almost every tick
// takes the memo fast path, so fast-path changes show here first.
func buildDayInLife(seed int64, plat platform.Platform, dir string) (fleet.Spec, error) {
	wls, err := recordUsers(dir, seed, dayInLifePool, time.Minute)
	if err != nil {
		return fleet.Spec{}, err
	}
	return fleet.Spec{
		Platforms: []platform.Platform{plat},
		Policies:  []fleet.PolicyFactory{fleet.Policy("mobicore")},
		Workloads: wls,
		Duration:  time.Minute,
	}, nil
}

// noisySeeds is the session-noisy-eas matrix size; session i runs at
// seed+i, cycling, like the day-in-the-life pool.
const noisySeeds = dayInLifePool

// buildNoisyEAS: SD855 under MobiCore with EAS placement, 10 s sessions of
// a 6-thread noisy sinusoid. Per-tick noise defeats the memo, so the slow
// scheduling pass, the EAS placer, and the 3-cluster power and thermal
// models run on almost every tick — the control for memo-only changes.
func buildNoisyEAS(seed int64, plat platform.Platform, _ string) (fleet.Spec, error) {
	newSinusoid := func() (workload.Workload, error) {
		return workload.NewSinusoid("noisy", 6, 1.5e9, 0.6, 2*time.Second, 0.3)
	}
	if _, err := newSinusoid(); err != nil {
		return fleet.Spec{}, err
	}
	seeds := make([]int64, noisySeeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return fleet.Spec{
		Platforms: []platform.Platform{plat},
		Policies:  []fleet.PolicyFactory{fleet.Policy("mobicore")},
		Workloads: []fleet.WorkloadFactory{{
			Name: "sinusoid-1.5e9x6-noise0.3",
			New: func() ([]workload.Workload, error) {
				w, err := newSinusoid()
				if err != nil {
					return nil, err
				}
				return []workload.Workload{w}, nil
			},
		}},
		Placers:  []string{sim.PlacerEAS},
		Seeds:    seeds,
		Duration: 10 * time.Second,
	}, nil
}

// studyPolicies are the three stacks both fleet workloads compare.
func studyPolicies() []fleet.PolicyFactory {
	return []fleet.PolicyFactory{
		fleet.Policy("mobicore"),
		fleet.Policy("android-default"),
		fleet.Policy("ondemand+offline"),
	}
}

// buildCohort: 32 recorded day-in-the-life users × 3 policies on Nexus 5,
// 30 s cells with power traces — the recorded-trace study path
// (record, read back, replay with per-cell trace export).
func buildCohort(seed int64, plat platform.Platform, dir string) (fleet.Spec, error) {
	wls, err := recordUsers(dir, seed, 32, 30*time.Second)
	if err != nil {
		return fleet.Spec{}, err
	}
	return fleet.Spec{
		Platforms: []platform.Platform{plat},
		Policies:  studyPolicies(),
		Workloads: wls,
		Duration:  30 * time.Second,
	}, nil
}

// buildChurn: 1000 generated day-in-the-life users × 3 policies on Nexus 5
// with 200 ms cells and no traces. Cells are short, so session
// construction and the store's write and read paths dominate.
func buildChurn(seed int64, plat platform.Platform, _ string) (fleet.Spec, error) {
	prof := scenario.DayInTheLife()
	if _, err := scenario.FromProfile(prof); err != nil {
		return fleet.Spec{}, err
	}
	seeds := make([]int64, 1000)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return fleet.Spec{
		Platforms: []platform.Platform{plat},
		Policies:  studyPolicies(),
		Workloads: []fleet.WorkloadFactory{{
			Name: "scenario-" + prof.Name,
			New: func() ([]workload.Workload, error) {
				w, err := scenario.FromProfile(prof)
				if err != nil {
					return nil, err
				}
				return []workload.Workload{w}, nil
			},
		}},
		Seeds:    seeds,
		Duration: 200 * time.Millisecond,
	}, nil
}

// recordUsers generates n day-in-the-life traces of length dur at seeds
// seed..seed+n-1, writes each as <dir>/dayinlife-s<seed>.jsonl, reads them
// back with scenario.ReadJSONL, and returns one replay column per trace —
// the record-then-replay path a recorded study takes.
func recordUsers(dir string, seed int64, n int, dur time.Duration) ([]fleet.WorkloadFactory, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]fleet.WorkloadFactory, n)
	for i := range out {
		s := seed + int64(i)
		gen, err := scenario.NewGenerator(scenario.DayInTheLife(), s)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("dayinlife-s%d", s)
		path := filepath.Join(dir, name+".jsonl")
		if err := writeTrace(path, gen.Generate(dur)); err != nil {
			return nil, err
		}
		tr, err := readTrace(path)
		if err != nil {
			return nil, err
		}
		out[i] = fleet.WorkloadFactory{
			Name: name,
			New: func() ([]workload.Workload, error) {
				w, err := scenario.New(tr)
				if err != nil {
					return nil, err
				}
				return []workload.Workload{w}, nil
			},
		}
	}
	return out, nil
}

func writeTrace(path string, tr scenario.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readTrace(path string) (scenario.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return scenario.Trace{}, err
	}
	defer f.Close()
	tr, err := scenario.ReadJSONL(f)
	if err != nil {
		return scenario.Trace{}, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// sessionOf lowers one matrix cell to a standalone session with fresh
// manager and workload instances, exactly as the fleet driver would.
func sessionOf(c fleet.Cell) (sim.SessionSpec, error) {
	mgr, err := c.Policy.New(c.Platform)
	if err != nil {
		return sim.SessionSpec{}, fmt.Errorf("building policy %q: %w", c.Policy.Name, err)
	}
	wls, err := c.Workload.New()
	if err != nil {
		return sim.SessionSpec{}, fmt.Errorf("building workload %q: %w", c.Workload.Name, err)
	}
	return sim.SessionSpec{
		Platform:     c.Platform,
		Manager:      mgr,
		Workloads:    wls,
		Duration:     c.Duration,
		UntilDone:    c.UntilDone,
		Seed:         c.Seed,
		Placer:       c.Placer,
		Tick:         c.Tick,
		SamplePeriod: c.SamplePeriod,
		NoFuse:       c.NoFuse,
	}, nil
}
