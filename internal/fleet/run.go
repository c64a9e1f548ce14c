package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobicore/internal/fleet/shard"
	"mobicore/internal/fleet/store"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// CellResult is one completed session of a fleet run.
type CellResult struct {
	// Index is the cell's position in Spec.Cells order.
	Index int `json:"index"`
	// Key is the cell's canonical identity hash — the name it persists
	// under in the result store and the trace directory.
	Key string `json:"key"`
	// The cell's coordinates in the matrix.
	Platform string `json:"platform"`
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	Placer   string `json:"placer,omitempty"`
	Seed     int64  `json:"seed"`

	// Report is the session's full simulation report. For cells loaded
	// from the result store (Cached) it is a condensed reconstruction:
	// every scalar the aggregates, text, and CSV reports consume is
	// present, but the sampled series are empty.
	Report *sim.Report `json:"report"`
	// Finished says whether the session's workloads all completed: always
	// true for duration-shaped cells, RunUntilDone's verdict for
	// UntilDone cells (a benchmark truncated by Duration reports false).
	Finished bool `json:"finished"`
	// Cached marks a cell loaded from the result store instead of
	// executed this run.
	Cached bool `json:"cached,omitempty"`

	// AvgFPS and DropRate are filled when the cell's workload set renders
	// frames (games); HasFrames says whether they are meaningful.
	AvgFPS    float64 `json:"avg_fps"`
	DropRate  float64 `json:"drop_rate"`
	HasFrames bool    `json:"has_frames"`

	// Workloads are the very instances the cell ran, so callers can read
	// workload-side statistics the report does not carry. Nil for Cached
	// cells.
	Workloads []workload.Workload `json:"-"`

	// rec is the cell's persisted form, kept for CSV export.
	rec store.Record
}

// Result is a fleet run's outcome: every completed cell in spec order,
// plus cross-seed aggregates and paired-difference comparisons per matrix
// group.
type Result struct {
	// Cells holds the completed cells in Spec.Cells order. On a canceled
	// run it holds only the cells that finished.
	Cells []CellResult `json:"cells"`
	// Aggregates summarizes each matrix group across its seeds, in first-
	// cell order. Every Stat carries the mean's 95% confidence interval.
	Aggregates []Aggregate `json:"aggregates"`
	// Comparisons holds the matched-seed paired differences: policy vs
	// policy within each context, then placer vs placer. Present only
	// when a pair shares at least two seeds.
	Comparisons []Comparison `json:"comparisons,omitempty"`
	// Total is the number of cells the spec declared.
	Total int `json:"total"`
	// Cached counts the cells loaded from the result store rather than
	// executed.
	Cached int `json:"cached,omitempty"`
	// Incomplete marks a canceled run whose Cells are partial.
	Incomplete bool `json:"incomplete,omitempty"`
	// Shard is set when the run covered one key-range shard of a larger
	// matrix; Total then counts the shard's cells, not the whole spec's.
	Shard *shard.Manifest `json:"shard,omitempty"`
}

// frameSource is the workload-side statistics surface games expose.
type frameSource interface {
	AvgFPS() float64
	DropRate() float64
}

// isCancellation reports whether err is context cancellation noise — a
// parent Cancel or an expired deadline — rather than a genuine cell
// failure. Both must surface as the partial-result path, not as a cell
// error that would discard every completed cell.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes every cell of the spec on a worker pool bounded by
// spec.Parallel (default GOMAXPROCS) and returns the assembled result.
// Results are ordered by cell index, and each session owns a private rng
// seeded from its cell, so output is byte-identical at any parallelism.
//
// With StoreDir set, completed cells are merged into the persistent result
// store; with Resume also set, cells already in the store are loaded
// instead of executed. Partial runs flush what completed, so an
// interrupted sweep resumes where it stopped. A run that leaves the store
// holding every cell of the unsharded matrix compacts it, so cells.jsonl
// then holds every record sorted by identity key, its bytes independent
// of parallelism, sharding and invocation count.
//
// A call restricted to one shard costs the identity key of every cell of
// the matrix and the plan over them (the plan needs every key), the store
// index (store.Open, which runs while the keys are hashed), and the
// shard's own cells: only those are built as Cells and run. Workers take
// their session arena and trace writer from a pool that outlives the
// call, so consecutive calls in one process reuse them.
//
// When ctx is canceled mid-run the completed cells come back in a partial
// Result (Incomplete set) alongside ctx's error, so callers can report
// what finished. A failing cell cancels the rest and Run returns the
// lowest-indexed cell error — deterministic, because cell failures are.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	n, err := spec.validate()
	if err != nil {
		return nil, err
	}
	if spec.Resume && spec.StoreDir == "" {
		return nil, errors.New("fleet: Resume requires StoreDir")
	}

	// The store index is built while the matrix is hashed and planned. A
	// planning error wins over an open error, and still waits for the
	// open, to release the lock.
	openStore := openAsync(spec.StoreDir)
	allKeys, manifest, members, err := spec.plan(n)
	if err != nil {
		if st, _ := openStore(); st != nil {
			st.Close()
		}
		return nil, err
	}
	st, err := openStore()
	if err != nil {
		return nil, err
	}
	if st != nil {
		defer st.Close()
	}

	// Only the run's own cells are built; members maps their run index to
	// their matrix index.
	cells := make([]Cell, len(members))
	keys := make([]string, len(members))
	for i, m := range members {
		cells[i] = spec.cell(m)
		keys[i] = allKeys[m]
	}
	if spec.TraceDir != "" {
		if err := os.MkdirAll(spec.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: creating trace dir: %w", err)
		}
	}

	// Split the matrix into cached cells (answered from the store) and
	// pending ones (executed on the pool).
	results := make([]*CellResult, len(cells))
	var pending []int
	cached := 0
	for i := range cells {
		if st != nil && spec.Resume {
			if rec, ok := st.Get(keys[i]); ok {
				results[i] = new(CellResult)
				cachedCell(results[i], new(sim.Report), i, &rec)
				cached++
				continue
			}
		}
		pending = append(pending, i)
	}

	par := spec.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(pending) {
		par = len(pending)
	}

	errs := make([]error, len(cells))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one arena (and one recycled trace writer)
			// for its whole cell stream, taken from the pool and returned
			// when the stream ends: consecutive cells, and consecutive
			// Runs, reuse the engine's buffers, and because reports
			// deep-copy their series the output stays byte-identical to
			// fresh allocation at any parallelism.
			scratch := scratchPool.Get().(*cellScratch)
			defer scratchPool.Put(scratch)
			for {
				n := int(next.Add(1))
				if n >= len(pending) {
					return
				}
				i := pending[n]
				if err := runCtx.Err(); err != nil {
					errs[i] = err
					continue
				}
				res, err := runCell(runCtx, i, cells[i], keys[i], spec.TraceDir, scratch)
				if err != nil {
					errs[i] = err
					if !isCancellation(err) {
						cancel()
					}
					continue
				}
				res.rec = recordOf(res, cells[i].identity())
				results[i] = res
			}
		}()
	}
	wg.Wait()

	// Persist whatever completed before reporting anything else: a failed
	// or interrupted sweep must still be resumable from the cells it
	// finished. Once the store holds the whole matrix, the study is
	// complete and the cells file is rewritten to hold every record.
	var storeErr error
	if st != nil {
		for _, r := range results {
			if r != nil && !r.Cached {
				st.Put(r.rec)
			}
		}
		if holdsAll(st, allKeys) {
			storeErr = st.Compact()
		} else {
			storeErr = st.Flush()
		}
	}

	// A genuine cell failure wins over cancellation noise; the lowest
	// index keeps the error deterministic under any scheduling.
	for i, err := range errs {
		if err != nil && !isCancellation(err) {
			c := cells[i]
			return nil, fmt.Errorf("fleet: cell %d (%s/%s/%s seed %d): %w",
				i, c.Platform.Name, c.Policy.Name, c.Workload.Name, c.Seed, err)
		}
	}

	out := &Result{Total: len(cells), Cached: cached, Shard: manifest}
	for _, r := range results {
		if r != nil {
			out.Cells = append(out.Cells, *r)
		}
	}
	out.Incomplete = len(out.Cells) < out.Total
	out.Aggregates = aggregate(out.Cells)
	out.Comparisons = compare(out.Cells)
	if storeErr != nil {
		// The sweep itself succeeded; losing the persistence must not
		// lose hours of completed simulation, so the result rides along
		// with the error.
		return out, storeErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if out.Incomplete {
		// No parent cancellation and no cell error, yet cells are missing:
		// only possible if a worker saw the run context die some other
		// way. Surface it rather than pass off a partial run as complete.
		return out, errors.New("fleet: run incomplete")
	}
	return out, nil
}

// plan hashes the identity key of each of the expansion's n cells and
// restricts the run to one key-range shard when the spec asks for one. A
// handed-in manifest is verified against the locally expanded keys first —
// a worker must prove it was handed the right work before executing any of
// it; one planned here from the same keys holds by construction. It
// returns every cell's key, the manifest (nil for the whole matrix) and
// the matrix indices of the run's cells, in cell order.
func (s *Spec) plan(n int) (keys []string, manifest *shard.Manifest, members []int, err error) {
	keys = s.keys(n)
	manifest = s.Shard
	if manifest != nil {
		if err := manifest.Verify(keys); err != nil {
			return nil, nil, nil, fmt.Errorf("fleet: %w", err)
		}
	} else if s.ShardCount > 0 {
		plan, err := shard.Plan(keys, s.ShardCount)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fleet: %w", err)
		}
		if s.ShardIndex < 0 || s.ShardIndex >= s.ShardCount {
			return nil, nil, nil, fmt.Errorf("fleet: shard index %d outside [0, %d)", s.ShardIndex, s.ShardCount)
		}
		manifest = &plan[s.ShardIndex]
	}
	if manifest == nil {
		members = make([]int, n)
		for i := range members {
			members[i] = i
		}
		return keys, nil, members, nil
	}
	members = make([]int, 0, manifest.Cells)
	for i, k := range keys {
		if manifest.Contains(k) {
			members = append(members, i)
		}
	}
	return keys, manifest, members, nil
}

// openAsync starts store.Open(dir) on its own goroutine and returns the
// function that waits for it and returns its result. An empty dir opens
// nothing: the wait returns a nil store and no error.
func openAsync(dir string) func() (*store.Store, error) {
	if dir == "" {
		return func() (*store.Store, error) { return nil, nil }
	}
	var (
		st  *store.Store
		err error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		st, err = store.Open(dir)
	}()
	return func() (*store.Store, error) {
		<-done
		return st, err
	}
}

// holdsAll reports whether the store holds a record for every key. It
// stops at the first missing key, so on an unfinished study it costs a few
// map lookups. (Comparing Len with len(keys) first would be wrong: a
// matrix may repeat a key.)
func holdsAll(st *store.Store, keys []string) bool {
	for _, k := range keys {
		if !st.Has(k) {
			return false
		}
	}
	return true
}

// cellScratch is one worker's cross-cell reuse state: the session arena
// and the recycled trace writer. Never shared between goroutines.
type cellScratch struct {
	arena *sim.Arena
	tw    *traceWriter // nil until the first traced cell
}

// scratchPool holds idle workers' scratch between Runs, so a process
// that runs shard after shard builds its arenas and trace writers once,
// not once per worker per call.
var scratchPool = sync.Pool{New: func() any { return newCellScratch() }}

// newCellScratch returns empty scratch: the first cell run in it allocates
// every buffer anew, exactly like fresh allocation.
func newCellScratch() *cellScratch {
	return &cellScratch{arena: sim.NewArena()}
}

// runCell executes one cell under pprof labels naming its matrix
// coordinates, so CPU and goroutine profiles of a fleet sweep attribute
// samples to platform/policy/workload/placer/seed instead of one
// undifferentiated worker-pool blob.
func runCell(ctx context.Context, idx int, c Cell, key, traceDir string, scratch *cellScratch) (res *CellResult, err error) {
	labels := pprof.Labels(
		"platform", c.Platform.Name,
		"policy", c.Policy.Name,
		"workload", c.Workload.Name,
		"placer", placerName(c.Placer),
		"seed", strconv.FormatInt(c.Seed, 10),
	)
	pprof.Do(ctx, labels, func(ctx context.Context) {
		res, err = runCellSession(ctx, idx, c, key, traceDir, scratch)
	})
	return res, err
}

// runCellSession builds and runs one cell's session in the worker's arena,
// exporting its power trace through the worker's recycled writer when
// traceDir is set.
func runCellSession(ctx context.Context, idx int, c Cell, key, traceDir string, scratch *cellScratch) (*CellResult, error) {
	spec, err := c.session()
	if err != nil {
		return nil, err
	}
	var tw *traceWriter
	if traceDir != "" {
		tw, err = newTraceWriter(traceDir, key, scratch.tw)
		if err != nil {
			return nil, err
		}
		scratch.tw = tw
		spec.PowerTrace = tw.hook
	}
	rep, done, err := spec.RunIn(ctx, scratch.arena)
	if tw != nil {
		if err != nil {
			// A canceled or failed session leaves a truncated trace that
			// would read as a complete (just shorter) run — discard it.
			tw.Abort()
		} else if cerr := tw.Close(); cerr != nil {
			return nil, cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res := &CellResult{
		Index:    idx,
		Key:      key,
		Platform: c.Platform.Name,
		Policy:   c.Policy.Name,
		Workload: c.Workload.Name,
		// The placer is canonicalized ("" → greedy) so fresh and cached
		// cells land in the same aggregate groups.
		Placer:    placerName(c.Placer),
		Seed:      c.Seed,
		Report:    rep,
		Finished:  done,
		Workloads: spec.Workloads,
	}
	for _, w := range spec.Workloads {
		if fs, ok := w.(frameSource); ok {
			res.AvgFPS = fs.AvgFPS()
			res.DropRate = fs.DropRate()
			res.HasFrames = true
			break
		}
	}
	return res, nil
}

// recordOf condenses a completed cell into its persisted form.
func recordOf(c *CellResult, id store.Identity) store.Record {
	rep := c.Report
	return store.Record{
		Key:       c.Key,
		Identity:  id,
		Finished:  c.Finished,
		ElapsedNS: int64(rep.Duration),
		HasFrames: c.HasFrames,
		AvgFPS:    c.AvgFPS,
		DropRate:  c.DropRate,

		AvgPowerW:         rep.AvgPowerW,
		PeakPowerW:        rep.PeakPowerW,
		EnergyJ:           rep.EnergyJ,
		AvgFreqHz:         rep.AvgFreqHz,
		AvgOnlineCores:    rep.AvgOnlineCores,
		AvgUtil:           rep.AvgUtil,
		AvgQuota:          rep.AvgQuota,
		AvgTempC:          rep.AvgTempC,
		MaxTempC:          rep.MaxTempC,
		ExecutedCycles:    rep.ExecutedCycles,
		QuotaThrottledSec: rep.QuotaThrottledSec,
		ThermalCappedSec:  rep.ThermalCappedSec,
	}
}

// cachedCell fills c as cell idx answered from the store by rec, with rep
// as its condensed report: every scalar the aggregates and reports read,
// no series.
func cachedCell(c *CellResult, rep *sim.Report, idx int, rec *store.Record) {
	*rep = sim.Report{
		Policy:   rec.Policy,
		Platform: rec.Platform,
		Placer:   rec.Placer,
		// The actual simulated length, not the spec's cap — an
		// UntilDone cell that finished early keeps its true elapsed
		// time through the cache round trip.
		Duration:          time.Duration(rec.ElapsedNS),
		AvgPowerW:         rec.AvgPowerW,
		PeakPowerW:        rec.PeakPowerW,
		EnergyJ:           rec.EnergyJ,
		AvgFreqHz:         rec.AvgFreqHz,
		AvgOnlineCores:    rec.AvgOnlineCores,
		AvgUtil:           rec.AvgUtil,
		AvgQuota:          rec.AvgQuota,
		AvgTempC:          rec.AvgTempC,
		MaxTempC:          rec.MaxTempC,
		ExecutedCycles:    rec.ExecutedCycles,
		QuotaThrottledSec: rec.QuotaThrottledSec,
		ThermalCappedSec:  rec.ThermalCappedSec,
	}
	*c = CellResult{
		Index:     idx,
		Key:       rec.Key,
		Platform:  rec.Platform,
		Policy:    rec.Policy,
		Workload:  rec.Workload,
		Placer:    rec.Placer,
		Seed:      rec.Seed,
		Report:    rep,
		Finished:  rec.Finished,
		Cached:    true,
		AvgFPS:    rec.AvgFPS,
		DropRate:  rec.DropRate,
		HasFrames: rec.HasFrames,
		rec:       *rec,
	}
}
