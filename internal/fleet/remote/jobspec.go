// Package remote turns the fleet driver into a horizontally scaled study
// service: a coordinator process owns a study (a name-based JobSpec and a
// result store), cuts its cell matrix into key-range shards
// (internal/fleet/shard), and serves them over HTTP/JSON; worker processes
// — on the same machine or across a fleet of them — claim shards, verify
// the manifest against their own expansion of the spec, execute only the
// cells the coordinator's store does not already hold, and stream their
// JSONL store fragments back. The transport is stdlib net/http only.
//
// Determinism survives distribution: shards are disjoint key ranges of one
// keyspace, records are keyed by the canonical identity hash, and the
// store flushes sorted by key — so the coordinator's merged cells.jsonl is
// byte-identical to a single-process run of the same spec, however many
// workers executed it, in whatever order their fragments arrived.
package remote

import (
	"errors"
	"fmt"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/games"
	"mobicore/internal/geekbench"
	"mobicore/internal/platform"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// WorkloadSpec names a workload recipe in serializable form — the same
// name-based vocabulary the mobifleet CLI speaks, so a distributed study's
// cell identities (and therefore its store keys) are identical to an
// in-process run of the same flags.
type WorkloadSpec struct {
	// Kind selects the recipe: "busyloop", "game", or "geekbench".
	Kind string `json:"kind"`
	// Util and Threads parameterize busyloop (Threads also sizes
	// geekbench).
	Util    float64 `json:"util,omitempty"`
	Threads int     `json:"threads,omitempty"`
	// Game is the title for Kind "game".
	Game string `json:"game,omitempty"`
	// Iterations is the per-thread iteration count for Kind "geekbench".
	Iterations int `json:"iterations,omitempty"`
}

// maxThreads bounds a wire workload's thread count. Lowering a spec builds
// each workload once to validate it, so an unbounded count from a peer
// would allocate that many threads; 1024 is far above any simulated SoC's
// core count.
const maxThreads = 1024

// factory lowers the wire spec to a fleet workload factory. Names encode
// the parameters exactly as the CLI spells them, because the store hashes
// the name.
func (ws WorkloadSpec) factory() (fleet.WorkloadFactory, error) {
	if ws.Threads > maxThreads {
		return fleet.WorkloadFactory{}, fmt.Errorf("remote: workload %q asks for %d threads (max %d)", ws.Kind, ws.Threads, maxThreads)
	}
	switch ws.Kind {
	case "busyloop":
		cfg := workload.BusyLoopConfig{
			TargetUtil: ws.Util,
			Threads:    ws.Threads,
			RefFreq:    platform.Nexus5().Table.Max().Freq,
		}
		if _, err := workload.NewBusyLoop(cfg); err != nil {
			return fleet.WorkloadFactory{}, err
		}
		return fleet.WorkloadFactory{
			Name: fmt.Sprintf("busyloop-%.0f%%x%d", ws.Util*100, ws.Threads),
			New: func() ([]workload.Workload, error) {
				w, err := workload.NewBusyLoop(cfg)
				if err != nil {
					return nil, err
				}
				return []workload.Workload{w}, nil
			},
		}, nil
	case "game":
		var profile games.Profile
		found := false
		for _, p := range games.All() {
			if p.Name == ws.Game {
				profile, found = p, true
				break
			}
		}
		if !found {
			return fleet.WorkloadFactory{}, fmt.Errorf("remote: unknown game %q", ws.Game)
		}
		return fleet.WorkloadFactory{
			Name: profile.Name,
			New: func() ([]workload.Workload, error) {
				g, err := games.New(profile)
				if err != nil {
					return nil, err
				}
				return []workload.Workload{g}, nil
			},
		}, nil
	case "geekbench":
		table := platform.Nexus5().Table
		if _, err := geekbench.NewRun(geekbench.StandardSuite(), table, ws.Threads, ws.Iterations); err != nil {
			return fleet.WorkloadFactory{}, err
		}
		return fleet.WorkloadFactory{
			Name: fmt.Sprintf("geekbench-x%d", ws.Threads),
			New: func() ([]workload.Workload, error) {
				gb, err := geekbench.NewRun(geekbench.StandardSuite(), table, ws.Threads, ws.Iterations)
				if err != nil {
					return nil, err
				}
				return []workload.Workload{gb}, nil
			},
		}, nil
	}
	return fleet.WorkloadFactory{}, fmt.Errorf("remote: unknown workload kind %q (want busyloop, game, geekbench)", ws.Kind)
}

// JobSpec is a fleet matrix as data: every dimension named, nothing that
// cannot cross a process boundary. Coordinator and workers each lower it
// to a fleet.Spec with FleetSpec; because the lowering is deterministic,
// both sides compute identical cell sets, identity keys, and shard plans.
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
// names (aliases or display names), policy stacks, and workload recipes.
// Every name failure surfaces here, before any session runs.
func (j JobSpec) FleetSpec() (fleet.Spec, error) {
	if len(j.Platforms) == 0 {
		return fleet.Spec{}, errors.New("remote: job names no platforms")
	}
	if len(j.Policies) == 0 {
		return fleet.Spec{}, errors.New("remote: job names no policies")
	}
	if len(j.Workloads) == 0 {
		return fleet.Spec{}, errors.New("remote: job names no workloads")
	}
	if j.DurationNS <= 0 {
		return fleet.Spec{}, errors.New("remote: job needs a positive duration")
	}
	plats := make([]platform.Platform, 0, len(j.Platforms))
	for _, name := range j.Platforms {
		p, err := platform.ByName(name)
		if err != nil {
			return fleet.Spec{}, fmt.Errorf("remote: %w", err)
		}
		plats = append(plats, p)
	}
	pols := make([]fleet.PolicyFactory, 0, len(j.Policies))
	for _, name := range j.Policies {
		// Resolve eagerly against every platform so an unknown policy name
		// fails at job validation, not mid-shard on a worker.
		for _, p := range plats {
			if _, err := stack.Build(name, p); err != nil {
				return fleet.Spec{}, fmt.Errorf("remote: %w", err)
			}
		}
		pols = append(pols, fleet.Policy(name))
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
