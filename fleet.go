package mobicore

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/study"
)

// FleetConfig declares a batch simulation matrix by name: the cross-product
// of platforms × policies × placement rules × seeds, each cell one session
// of Duration over the caller's workload factories. RunFleet executes the
// matrix on a bounded worker pool; see internal/fleet for the engine.
type FleetConfig struct {
	// Platforms names device profiles (aliases or display names; see
	// Platforms). Empty means ["nexus5"].
	Platforms []string
	// Policies names CPU managers — the Policy* constants or
	// "<governor>+<hotplug>" forms. Empty means [PolicyAndroidDefault].
	Policies []string
	// Scheds names scheduler placement rules (SchedGreedy, SchedEAS).
	// Empty means [SchedGreedy].
	Scheds []string
	// Seeds lists workload randomness seeds; the fleet aggregates
	// statistics across this dimension. Empty means the single seed 0.
	Seeds []int64
	// Duration is the simulated length of every session; required.
	Duration time.Duration
	// Tick and SamplePeriod override the engine defaults (1 ms, 50 ms).
	Tick         time.Duration
	SamplePeriod time.Duration
	// Parallel bounds the worker pool; 0 means GOMAXPROCS. Parallelism
	// never changes results — output is ordered by cell index — only
	// wall-clock time.
	Parallel int

	// Store names a directory for the persistent result store: every
	// completed cell is merged into the store keyed by its canonical
	// identity hash, so sweeps compose across invocations; once it holds
	// the whole matrix, <Store>/cells.jsonl holds every record sorted by
	// key. Empty disables persistence.
	Store string
	// Resume loads cached cells from Store before running, executing only
	// the cells the store does not hold yet. Requires Store. A fully-
	// cached matrix executes zero sessions and reproduces the cold run's
	// aggregates and CSV byte for byte.
	Resume bool
	// Traces exports each executed cell's per-tick power trace (system
	// plus per-cluster watts) as gzip JSONL under <Store>/traces.
	// Requires Store.
	Traces bool

	// ShardIndex/ShardCount restrict the run to one key-range shard of the
	// matrix: when ShardCount > 0, the cell keyspace is partitioned into
	// ShardCount contiguous ranges and only shard ShardIndex (0-based)
	// executes. Disjoint-shard runs into separate stores merge (see
	// MergeFleetStores) into a store byte-identical to an unsharded run.
	ShardIndex int
	ShardCount int
}

// FleetWorkload names a workload recipe for fleet cells. Workload
// instances are stateful, so New is called once per cell to produce a
// fresh set; it must be safe to call from multiple goroutines.
type FleetWorkload = fleet.WorkloadFactory

// NewFleetWorkload builds a FleetWorkload from a name and a factory.
func NewFleetWorkload(name string, build func() ([]Workload, error)) FleetWorkload {
	return FleetWorkload{Name: name, New: build}
}

// FleetResult is a completed fleet run: per-cell reports in matrix order
// plus cross-seed aggregate statistics. It renders with WriteText and
// marshals as JSON.
type FleetResult = fleet.Result

// FleetCell is one completed session of a fleet run.
type FleetCell = fleet.CellResult

// FleetAggregate is one matrix group summarized across its seeds.
type FleetAggregate = fleet.Aggregate

// FleetStat is one metric's distribution across a group's seeds,
// including the mean's 95% confidence interval.
type FleetStat = fleet.Stat

// FleetComparison is a paired matched-seed difference between two
// policies (or two placers) in the same matrix context.
type FleetComparison = fleet.Comparison

// FleetPairedStat is one metric's paired-difference summary inside a
// FleetComparison.
type FleetPairedStat = fleet.PairedStat

// RunFleet executes the matrix cfg declares over the given workload
// factories and returns every session's report plus cross-seed aggregates
// (mean/stddev/min/max/p50/p95 of energy, FPS, drop rate, and throttle
// residency). Results are deterministic: the same config and workloads
// produce byte-identical output at any Parallel setting.
//
// Cancelling ctx stops the fleet between ticks; the completed cells come
// back in a partial FleetResult alongside ctx's error, so callers can
// report what finished.
func RunFleet(ctx context.Context, cfg FleetConfig, workloads ...FleetWorkload) (*FleetResult, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("mobicore: RunFleet needs at least one workload factory")
	}
	platNames := cfg.Platforms
	if len(platNames) == 0 {
		platNames = []string{"nexus5"}
	}
	polNames := cfg.Policies
	if len(polNames) == 0 {
		polNames = []string{PolicyAndroidDefault}
	}
	plats, pols, err := study.Resolve(platNames, polNames)
	if err != nil {
		return nil, fmt.Errorf("mobicore: %w", err)
	}
	if cfg.Traces && cfg.Store == "" {
		return nil, fmt.Errorf("mobicore: FleetConfig.Traces requires Store")
	}
	if cfg.Resume && cfg.Store == "" {
		return nil, fmt.Errorf("mobicore: FleetConfig.Resume requires Store")
	}
	traceDir := ""
	if cfg.Traces {
		traceDir = filepath.Join(cfg.Store, "traces")
	}
	res, err := fleet.Run(ctx, fleet.Spec{
		Platforms:    plats,
		Policies:     pols,
		Workloads:    workloads,
		Placers:      cfg.Scheds,
		Seeds:        cfg.Seeds,
		Duration:     cfg.Duration,
		Tick:         cfg.Tick,
		SamplePeriod: cfg.SamplePeriod,
		Parallel:     cfg.Parallel,
		StoreDir:     cfg.Store,
		Resume:       cfg.Resume,
		TraceDir:     traceDir,
		ShardIndex:   cfg.ShardIndex,
		ShardCount:   cfg.ShardCount,
	})
	if err != nil && res == nil {
		return nil, fmt.Errorf("mobicore: %w", err)
	}
	return res, err
}

// LoadFleetResult rebuilds a FleetResult from a persistent result store —
// aggregates, comparisons, text, CSV, and JSON with zero cells executed.
// The store may have been filled by any mix of serial, parallel, sharded,
// or distributed runs.
func LoadFleetResult(storeDir string) (*FleetResult, error) {
	return fleet.LoadStoreResult(storeDir)
}

// FleetDiff is a cross-store comparison: the same cells run by two code
// versions, summarized as paired per-cell deltas with 95% confidence
// intervals per matrix group.
type FleetDiff = fleet.Diff

// DiffFleetStores pairs two result stores cell-by-cell (by canonical
// identity key) and summarizes the B−A deltas. Use FleetDiff.Regressions
// to gate CI on statistically certain energy movement.
func DiffFleetStores(storeA, storeB string) (*FleetDiff, error) {
	return fleet.LoadStoreDiff(storeA, storeB)
}

// MergeFleetStores merges source result stores into dst, refusing
// conflicting records for the same cell. Returns the number of records
// new to dst.
func MergeFleetStores(dst string, srcs ...string) (int, error) {
	return fleet.MergeStores(dst, srcs...)
}
