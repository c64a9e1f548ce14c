// Package fleet is the batch simulation driver: a declarative Spec names a
// matrix of sessions (platforms × policies × workloads × placers × seeds),
// Run executes the cells on a bounded worker pool, and the result carries
// every per-cell report plus cross-seed aggregate statistics. The engine is
// single-threaded per Sim and embarrassingly parallel across sessions —
// fleet exploits that without giving up determinism: results are ordered
// by cell index, so a parallel run renders byte-identically to a serial
// one.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"mobicore/internal/fleet/shard"
	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/sim"
	"mobicore/internal/stack"
	"mobicore/internal/workload"
)

// PolicyFactory names a policy stack and builds fresh manager instances
// for it. Managers are stateful, so every cell gets its own; New is called
// concurrently from the worker pool and must be safe to call from multiple
// goroutines (pure construction — the common case — is).
type PolicyFactory struct {
	// Name labels the policy in reports and groups aggregates.
	Name string
	// New builds one fresh manager for a platform.
	New func(platform.Platform) (policy.Manager, error)
}

// Policy is the name-based PolicyFactory: any name internal/stack accepts
// ("mobicore", "android-default", "oracle", "<governor>+<hotplug>").
func Policy(name string) PolicyFactory {
	return PolicyFactory{
		Name: name,
		New:  func(plat platform.Platform) (policy.Manager, error) { return stack.Build(name, plat) },
	}
}

// WorkloadFactory names a demand recipe and builds fresh workload
// instances for it. Workloads are stateful, so every cell gets its own;
// like PolicyFactory.New, New must be callable concurrently.
type WorkloadFactory struct {
	// Name labels the workload in reports and groups aggregates.
	Name string
	// New builds the cell's fresh workload set.
	New func() ([]workload.Workload, error)
}

// Spec declares a fleet: the cross-product of the dimension slices, plus
// any explicit extra cells. The zero value of each optional dimension
// selects the engine default (greedy placement, seed 0, default tick and
// sampling).
type Spec struct {
	// Platforms, Policies, and Workloads are the required dimensions of
	// the cross-product; every combination of the three (times Placers
	// and Seeds) becomes one cell.
	Platforms []platform.Platform
	Policies  []PolicyFactory
	Workloads []WorkloadFactory
	// Placers lists scheduler placement rules (sim.PlacerGreedy,
	// sim.PlacerEAS); empty means the default greedy.
	Placers []string
	// Seeds lists workload randomness seeds; empty means the single seed
	// 0. Cross-seed aggregate statistics group over this dimension.
	Seeds []int64

	// Duration is the simulated length of every cross-product cell;
	// required when the cross-product is non-empty.
	Duration time.Duration
	// UntilDone stops each session early once its workloads finish
	// (benchmark-style cells), with Duration as the cap.
	UntilDone bool
	// Tick and SamplePeriod override the engine defaults for every cell.
	Tick         time.Duration
	SamplePeriod time.Duration
	// NoFuse disables the engine's quiescent-tick fast path in every cell
	// (see sim.SessionSpec.NoFuse). Output is byte-identical either way, so the
	// knob is excluded from cell identity — fused and unfused runs of the
	// same matrix share store records.
	NoFuse bool

	// ExtraCells run after the cross-product, for matrices that are not
	// rectangular (one-off calibration cells, asymmetric baselines).
	ExtraCells []Cell

	// Parallel bounds the worker pool; 0 means GOMAXPROCS. Parallelism
	// never changes results, only wall-clock time.
	Parallel int

	// StoreDir names the persistent result store: every completed cell is
	// persisted keyed by its canonical identity hash and merged with
	// whatever the store already holds, so sweeps compose across
	// invocations. A run's flush appends its new records to
	// <StoreDir>/cells.log or rewrites <StoreDir>/cells.jsonl (see package
	// store); once the store holds the whole matrix, cells.jsonl is
	// rewritten with every record sorted by key, so its bytes never depend
	// on execution order, parallelism or sharding. Empty disables
	// persistence.
	StoreDir string
	// Resume loads cached cells from StoreDir before running: cells whose
	// identity hash is already stored come back from the store (Cached
	// set, condensed report) and only the missing ones execute. Requires
	// StoreDir.
	Resume bool
	// TraceDir, when set, exports each executed cell's per-tick power
	// trace as <TraceDir>/<key>.trace.jsonl.gz — one gzip JSONL line per
	// integration tick with the system watts and every cluster's share.
	// Cached cells are not re-traced.
	TraceDir string

	// Shard restricts the run to the cells of one key-range shard of the
	// matrix. Run verifies the manifest against the locally expanded cell
	// set before executing anything — a spec-hash mismatch means this
	// process was handed a shard cut from a different study. Nil runs the
	// whole matrix.
	Shard *shard.Manifest
	// ShardIndex/ShardCount are the by-position spelling of Shard for
	// callers without a manifest in hand (mobifleet -shard i/n): when
	// ShardCount > 0 and Shard is nil, Run plans ShardCount shards over
	// the matrix and takes shard ShardIndex. Disjoint-shard runs into
	// disjoint store directories merge (store.Merge) into bytes identical
	// to a single whole-matrix run.
	ShardIndex int
	ShardCount int
}

// ShardPlan expands the spec and partitions its cell keys into count
// disjoint key-range shards. Every process that expands the same spec
// computes the same plan — the coordinator/worker contract rests on it.
func (s Spec) ShardPlan(count int) ([]shard.Manifest, error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, err
	}
	return shard.Plan(keys, count)
}

// Keys expands the spec and returns each cell's identity key, in cell
// order.
func (s Spec) Keys() ([]string, error) {
	n, err := s.validate()
	if err != nil {
		return nil, err
	}
	return s.keys(n), nil
}

// keys returns the identity key of each of the expansion's n cells.
func (s *Spec) keys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = s.cell(i).identity().Key()
	}
	return keys
}

// Cell is one fully-resolved session of a fleet.
type Cell struct {
	Platform platform.Platform
	Policy   PolicyFactory
	Workload WorkloadFactory
	Placer   string
	Seed     int64

	Duration     time.Duration
	UntilDone    bool
	Tick         time.Duration
	SamplePeriod time.Duration
	// NoFuse disables the quiescent-tick fast path for this cell. Not part
	// of the cell's identity: the fast path never changes output bytes.
	NoFuse bool
}

// validCell checks the parts of a cell that Run cannot do without.
func validCell(pol PolicyFactory, wl WorkloadFactory, d time.Duration) error {
	if pol.New == nil {
		return errors.New("fleet: cell needs a policy factory")
	}
	if wl.New == nil {
		return errors.New("fleet: cell needs a workload factory")
	}
	if d <= 0 {
		return errors.New("fleet: cell needs a positive duration")
	}
	return nil
}

// Cells expands the spec into its ordered cell list: the cross-product in
// platform → policy → workload → placer → seed nesting order, then the
// extra cells (see cell). The order is part of the contract — results and
// text output follow it exactly, whatever the parallelism.
func (s Spec) Cells() ([]Cell, error) {
	n, err := s.validate()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = s.cell(i)
	}
	return cells, nil
}

// size returns the number of cross-product cells and of all cells. An
// empty Placers or Seeds list counts as its one default.
func (s *Spec) size() (cross, total int) {
	cross = len(s.Platforms) * len(s.Policies) * len(s.Workloads) * max(len(s.Placers), 1) * max(len(s.Seeds), 1)
	return cross, cross + len(s.ExtraCells)
}

// coords decodes cross-product index i into its dimension indices, seed
// the fastest-moving: the one place the nesting order is defined.
func (s *Spec) coords(i int) (plat, pol, wl, placer, seed int) {
	ns, np, nw, npol := max(len(s.Seeds), 1), max(len(s.Placers), 1), len(s.Workloads), len(s.Policies)
	seed, i = i%ns, i/ns
	placer, i = i%np, i/np
	wl, i = i%nw, i/nw
	pol, plat = i%npol, i/npol
	return plat, pol, wl, placer, seed
}

// cell returns cell i of the expansion: a cross-product cell decoded by
// coords, or an extra cell after them. i must lie in [0, total).
func (s *Spec) cell(i int) Cell {
	cross, _ := s.size()
	if i >= cross {
		return s.ExtraCells[i-cross]
	}
	plat, pol, wl, placer, seed := s.coords(i)
	c := Cell{
		Platform:     s.Platforms[plat],
		Policy:       s.Policies[pol],
		Workload:     s.Workloads[wl],
		Duration:     s.Duration,
		UntilDone:    s.UntilDone,
		Tick:         s.Tick,
		SamplePeriod: s.SamplePeriod,
		NoFuse:       s.NoFuse,
	}
	if len(s.Placers) > 0 {
		c.Placer = s.Placers[placer]
	}
	if len(s.Seeds) > 0 {
		c.Seed = s.Seeds[seed]
	}
	return c
}

// validate checks every cell of the expansion in cell order, reading each
// cross-product cell's factories in place, and returns the cell count.
// The first invalid cell's error names its index.
func (s *Spec) validate() (int, error) {
	cross, total := s.size()
	if total == 0 {
		return 0, errors.New("fleet: spec declares no cells")
	}
	for i := range total {
		var err error
		if i < cross {
			_, pol, wl, _, _ := s.coords(i)
			err = validCell(s.Policies[pol], s.Workloads[wl], s.Duration)
		} else {
			c := &s.ExtraCells[i-cross]
			err = validCell(c.Policy, c.Workload, c.Duration)
		}
		if err != nil {
			return 0, fmt.Errorf("%w (cell %d)", err, i)
		}
	}
	return total, nil
}

// identity is the cell's canonical store coordinate. Engine defaults are
// canonicalized (empty placer → greedy, zero tick → 1 ms, zero sample
// period → 50 ms) so a cell spelled with defaults and one spelled
// explicitly name the same record.
func (c Cell) identity() store.Identity {
	placer := c.Placer
	if placer == "" {
		placer = sim.PlacerGreedy
	}
	tick := c.Tick
	if tick == 0 {
		tick = time.Millisecond
	}
	sample := c.SamplePeriod
	if sample == 0 {
		sample = 50 * time.Millisecond
	}
	return store.Identity{
		Platform:   c.Platform.Name,
		Policy:     c.Policy.Name,
		Workload:   c.Workload.Name,
		Placer:     placer,
		Seed:       c.Seed,
		DurationNS: int64(c.Duration),
		UntilDone:  c.UntilDone,
		TickNS:     int64(tick),
		SampleNS:   int64(sample),
	}
}

// session lowers the cell to the engine's session description with fresh
// manager and workload instances.
func (c Cell) session() (sim.SessionSpec, error) {
	mgr, err := c.Policy.New(c.Platform)
	if err != nil {
		return sim.SessionSpec{}, fmt.Errorf("fleet: building policy %q for %s: %w", c.Policy.Name, c.Platform.Name, err)
	}
	wls, err := c.Workload.New()
	if err != nil {
		return sim.SessionSpec{}, fmt.Errorf("fleet: building workload %q: %w", c.Workload.Name, err)
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
