package study

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"mobicore/internal/natsort"
	"mobicore/internal/platform"
	"mobicore/internal/sim"
	"mobicore/internal/stack"
)

// Flags holds the matrix flags Register adds to a flag set.
type Flags struct {
	platforms, policies, scheds string
	seeds                       int
	seed                        int64
	dur                         time.Duration
	workload                    string
	util                        float64
	threads                     int
	game                        string
	iterations                  int
	scenario                    string
}

// Register adds the matrix flags to fs: -platforms -policies -scheds
// -seeds -seed -dur -workload -util -threads -game -iterations -scenario.
// Call Job after fs.Parse to read the study they name.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.platforms, "platforms", "nexus5", "comma-separated device profiles, or \"all\"")
	fs.StringVar(&f.policies, "policies", "android-default", "comma-separated CPU management policies, or \"all\"")
	fs.StringVar(&f.scheds, "scheds", "greedy", "comma-separated placement rules: greedy, eas, or \"all\"")
	fs.IntVar(&f.seeds, "seeds", 1, "number of consecutive seeds per cell")
	fs.Int64Var(&f.seed, "seed", 1, "first workload randomness seed")
	fs.DurationVar(&f.dur, "dur", 30*time.Second, "session duration (simulated) per cell")
	fs.StringVar(&f.workload, "workload", "busyloop", "workload: "+kinds)
	fs.Float64Var(&f.util, "util", 0.5, "busyloop target utilization [0,1]")
	fs.IntVar(&f.threads, "threads", 4, "busyloop/geekbench thread count")
	fs.StringVar(&f.game, "game", "Subway Surf", "game title for -workload game")
	fs.IntVar(&f.iterations, "iterations", 3, "geekbench iterations per thread")
	fs.StringVar(&f.scenario, "scenario", "dayinlife", "scenario profile for -workload scenario (generator mode: each seed is a distinct synthetic user)")
	return f
}

// Job returns the study the parsed flags name: "all" expanded in natural
// order, -seeds consecutive seeds from -seed, and one workload column.
// Names are resolved later, by FleetSpec.
func (f *Flags) Job() (JobSpec, error) {
	if f.seeds < 1 {
		return JobSpec{}, errors.New("-seeds must be at least 1")
	}
	ws := WorkloadSpec{Kind: f.workload}
	switch f.workload {
	case "busyloop":
		ws.Util, ws.Threads = f.util, f.threads
	case "game":
		ws.Game = f.game
	case "geekbench":
		ws.Threads, ws.Iterations = f.threads, f.iterations
	case "scenario":
		ws.Scenario = f.scenario
	default:
		return JobSpec{}, fmt.Errorf("unknown workload %q (want %s)", f.workload, kinds)
	}
	seeds := make([]int64, f.seeds)
	for i := range seeds {
		seeds[i] = f.seed + int64(i)
	}
	return JobSpec{
		Platforms:  expand(f.platforms, platformNames()),
		Policies:   expand(f.policies, AllPolicies()),
		Placers:    expand(f.scheds, []string{sim.PlacerGreedy, sim.PlacerEAS}),
		Seeds:      seeds,
		Workloads:  []WorkloadSpec{ws},
		DurationNS: int64(f.dur),
	}, nil
}

// AllPolicies is what "-policies all" expands to: the named stacks, the
// stock per-cluster governor stacks the paper's comparisons run against
// (ondemand+load is android-default, so it is not repeated), and the two
// blunt baselines the scenario experiments rank — max pinning with hotplug
// disabled and ondemand with the load-packing offliner.
func AllPolicies() []string {
	return append(stack.Names(),
		"conservative+load", "interactive+load", "schedutil+load",
		"pin-max+mpdecision", "ondemand+offline")
}

// platformNames lists the built-in profiles by CLI alias.
func platformNames() []string {
	var names []string
	for n := range platform.Profiles() {
		names = append(names, n)
	}
	natsort.Strings(names)
	return names
}

// expand parses a comma-separated flag value; "all" expands to the full
// set in natural order (nexus5 before nexus6p).
func expand(s string, all []string) []string {
	if strings.TrimSpace(s) == "all" {
		out := append([]string(nil), all...)
		natsort.Strings(out)
		return out
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
