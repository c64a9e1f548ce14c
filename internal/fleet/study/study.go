// Package study owns a named fleet study: a simulation matrix spelled
// entirely by name, so it can cross a process boundary and still expand to
// the same cells everywhere.
//
// A JobSpec names every dimension: platforms, policy stacks, placement
// rules, seeds and workload recipes. FleetSpec lowers it to an executable
// fleet.Spec. The mobifleet command, the mobifleetd coordinator and every
// mobifleetd worker lower through that one method, and the root facade's
// RunFleet resolves its platform and policy names through the same
// Resolve. The store keys a cell by its identity name, so each name is
// spelled in one place, WorkloadSpec.recipe, and encodes every parameter
// that changes the physics:
//
//	busyloop   busyloop-<util%>x<threads>   util must be a whole percent
//	game       the title, e.g. "Subway Surf"
//	geekbench  geekbench-x<threads>-i<iterations>
//	scenario   scenario-<profile>           generator mode: each seed is a distinct synthetic user
//
// Register adds the matrix flags both commands share, with one "all"
// expansion per dimension (AllPolicies for -policies).
package study

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/games"
	"mobicore/internal/geekbench"
	"mobicore/internal/platform"
	"mobicore/internal/scenario"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// WorkloadSpec names a workload recipe in serializable form.
type WorkloadSpec struct {
	// Kind selects the recipe: "busyloop", "game", "geekbench" or
	// "scenario".
	Kind string `json:"kind"`
	// Util and Threads parameterize busyloop (Threads also sizes
	// geekbench).
	Util    float64 `json:"util,omitempty"`
	Threads int     `json:"threads,omitempty"`
	// Game is the title for Kind "game".
	Game string `json:"game,omitempty"`
	// Iterations is the per-thread iteration count for Kind "geekbench".
	Iterations int `json:"iterations,omitempty"`
	// Scenario is the profile for Kind "scenario".
	Scenario string `json:"scenario,omitempty"`
}

// kinds lists the workload kinds for error messages.
const kinds = "busyloop, game, geekbench, scenario"

// maxThreads bounds a workload's thread count. Lowering a spec builds each
// workload once to validate it, so an unbounded count from a peer would
// allocate that many threads; 1024 is far above any simulated SoC's core
// count.
const maxThreads = 1024

// recipe spells the workload's identity name and returns its builder. It
// is the only place a workload name is spelled: the store hashes the name
// into the cell's key, so the name must change whenever the physics does.
func (ws WorkloadSpec) recipe() (string, func() (workload.Workload, error), error) {
	switch ws.Kind {
	case "busyloop":
		// The name rounds util to a percent, so a finer util would share
		// a key with its rounded neighbour.
		if math.Round(ws.Util*100)/100 != ws.Util {
			return "", nil, fmt.Errorf("study: busyloop util %v is not a whole percent", ws.Util)
		}
		cfg := workload.BusyLoopConfig{
			TargetUtil: ws.Util,
			Threads:    ws.Threads,
			RefFreq:    platform.Nexus5().Table.Max().Freq,
		}
		return fmt.Sprintf("busyloop-%.0f%%x%d", ws.Util*100, ws.Threads),
			func() (workload.Workload, error) { return workload.NewBusyLoop(cfg) }, nil
	case "game":
		for _, p := range games.All() {
			if p.Name == ws.Game {
				return p.Name, func() (workload.Workload, error) { return games.New(p) }, nil
			}
		}
		return "", nil, fmt.Errorf("study: unknown game %q", ws.Game)
	case "geekbench":
		table := platform.Nexus5().Table
		return fmt.Sprintf("geekbench-x%d-i%d", ws.Threads, ws.Iterations),
			func() (workload.Workload, error) {
				return geekbench.NewRun(geekbench.StandardSuite(), table, ws.Threads, ws.Iterations)
			}, nil
	case "scenario":
		return "scenario-" + ws.Scenario, func() (workload.Workload, error) {
			prof, err := scenario.ProfileByName(ws.Scenario)
			if err != nil {
				return nil, err
			}
			return scenario.FromProfile(prof)
		}, nil
	}
	return "", nil, fmt.Errorf("study: unknown workload kind %q (want %s)", ws.Kind, kinds)
}

// factory lowers the spec to a fleet workload factory, building the
// workload once so a bad parameter fails here rather than mid-shard.
func (ws WorkloadSpec) factory() (fleet.WorkloadFactory, error) {
	if ws.Threads > maxThreads {
		return fleet.WorkloadFactory{}, fmt.Errorf("study: workload %q asks for %d threads (max %d)", ws.Kind, ws.Threads, maxThreads)
	}
	name, build, err := ws.recipe()
	if err != nil {
		return fleet.WorkloadFactory{}, err
	}
	if _, err := build(); err != nil {
		return fleet.WorkloadFactory{}, err
	}
	return fleet.WorkloadFactory{
		Name: name,
		New: func() ([]workload.Workload, error) {
			w, err := build()
			if err != nil {
				return nil, err
			}
			return []workload.Workload{w}, nil
		},
	}, nil
}

// JobSpec is a fleet matrix as data: every dimension named, nothing that
// cannot cross a process boundary. Because FleetSpec is deterministic,
// every process that lowers the same job computes identical cell sets,
// identity keys and shard plans.
type JobSpec struct {
	Platforms []string       `json:"platforms"`
	Policies  []string       `json:"policies"`
	Placers   []string       `json:"placers,omitempty"`
	Seeds     []int64        `json:"seeds"`
	Workloads []WorkloadSpec `json:"workloads"`

	// DurationNS is the simulated length of every cell, in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// UntilDone stops each session early once its workloads finish.
	UntilDone bool `json:"until_done,omitempty"`
	// TickNS and SampleNS override the engine defaults when non-zero.
	TickNS   int64 `json:"tick_ns,omitempty"`
	SampleNS int64 `json:"sample_ns,omitempty"`
}

// FleetSpec lowers the job to an executable fleet spec, resolving platform
// names, policy stacks and workload recipes. Every name failure surfaces
// here, before any session runs.
func (j JobSpec) FleetSpec() (fleet.Spec, error) {
	if len(j.Platforms) == 0 {
		return fleet.Spec{}, errors.New("study: job names no platforms")
	}
	if len(j.Policies) == 0 {
		return fleet.Spec{}, errors.New("study: job names no policies")
	}
	if len(j.Workloads) == 0 {
		return fleet.Spec{}, errors.New("study: job names no workloads")
	}
	if j.DurationNS <= 0 {
		return fleet.Spec{}, errors.New("study: job needs a positive duration")
	}
	plats, pols, err := Resolve(j.Platforms, j.Policies)
	if err != nil {
		return fleet.Spec{}, err
	}
	wls := make([]fleet.WorkloadFactory, 0, len(j.Workloads))
	for _, ws := range j.Workloads {
		wf, err := ws.factory()
		if err != nil {
			return fleet.Spec{}, err
		}
		wls = append(wls, wf)
	}
	return fleet.Spec{
		Platforms:    plats,
		Policies:     pols,
		Workloads:    wls,
		Placers:      j.Placers,
		Seeds:        j.Seeds,
		Duration:     time.Duration(j.DurationNS),
		UntilDone:    j.UntilDone,
		Tick:         time.Duration(j.TickNS),
		SamplePeriod: time.Duration(j.SampleNS),
	}, nil
}

// Resolve resolves platform names (aliases or display names) and policy
// stacks. Every policy is built once on every platform, so an unknown name
// fails here, not mid-shard on a worker.
func Resolve(platforms, policies []string) ([]platform.Platform, []fleet.PolicyFactory, error) {
	plats := make([]platform.Platform, 0, len(platforms))
	for _, name := range platforms {
		p, err := platform.ByName(name)
		if err != nil {
			return nil, nil, fmt.Errorf("study: %w (have %v)", err, platformNames())
		}
		plats = append(plats, p)
	}
	pols := make([]fleet.PolicyFactory, 0, len(policies))
	for _, name := range policies {
		for _, p := range plats {
			if _, err := stack.Build(name, p); err != nil {
				return nil, nil, fmt.Errorf("study: %w", err)
			}
		}
		pols = append(pols, fleet.Policy(name))
	}
	return plats, pols, nil
}
