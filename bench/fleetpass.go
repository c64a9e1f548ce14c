package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/workload"
)

// cellClock times fleet cells from outside through their factories: a
// cell starts when the worker calls its policy factory, its set-up ends at
// its first workload Tick, and it ends when the engine asks the manager for
// its name while building the report. Only a handful of clock reads per
// cell, so the untraced passes carry it too (it gives cell_ms_p50/p90).
type cellClock struct {
	tr     *tracer
	parent int // the shard span the cells belong to

	mu      sync.Mutex
	cellMS  []float64 // policy factory → report, per cell
	buildUS []float64 // policy factory duration, per cell
	setupUS []float64 // workload factory → first Tick, per cell
	busyNS  int64     // Σ cell spans
}

func (cc *cellClock) wrap(spec fleet.Spec) fleet.Spec {
	pols := make([]fleet.PolicyFactory, len(spec.Policies))
	for i, pf := range spec.Policies {
		pols[i] = fleet.PolicyFactory{Name: pf.Name, New: cc.policy(pf.New)}
	}
	wls := make([]fleet.WorkloadFactory, len(spec.Workloads))
	for i, wf := range spec.Workloads {
		wls[i] = fleet.WorkloadFactory{Name: wf.Name, New: cc.workloads(wf.New)}
	}
	spec.Policies, spec.Workloads = pols, wls
	extra := make([]fleet.Cell, len(spec.ExtraCells))
	for i, c := range spec.ExtraCells {
		c.Policy = fleet.PolicyFactory{Name: c.Policy.Name, New: cc.policy(c.Policy.New)}
		c.Workload = fleet.WorkloadFactory{Name: c.Workload.Name, New: cc.workloads(c.Workload.New)}
		extra[i] = c
	}
	spec.ExtraCells = extra
	return spec
}

func (cc *cellClock) policy(build func(platform.Platform) (policy.Manager, error)) func(platform.Platform) (policy.Manager, error) {
	return func(p platform.Platform) (policy.Manager, error) {
		start := cc.tr.now()
		m, err := build(p)
		built := cc.tr.now()
		if err != nil {
			return nil, err
		}
		ended := false
		return &timedManager{Manager: m, onName: func() {
			if ended {
				return
			}
			ended = true
			end := cc.tr.now()
			cc.tr.add("cell", cc.parent, start, end)
			cc.mu.Lock()
			cc.cellMS = append(cc.cellMS, float64(end-start)/1e6)
			cc.buildUS = append(cc.buildUS, float64(built-start)/1e3)
			cc.busyNS += end - start
			cc.mu.Unlock()
		}}, nil
	}
}

func (cc *cellClock) workloads(build func() ([]workload.Workload, error)) func() ([]workload.Workload, error) {
	return func() ([]workload.Workload, error) {
		start := cc.tr.now()
		ws, err := build()
		if err != nil {
			return nil, err
		}
		started := false
		first := func() {
			if started {
				return
			}
			started = true
			d := float64(cc.tr.now()-start) / 1e3
			cc.mu.Lock()
			cc.setupUS = append(cc.setupUS, d)
			cc.mu.Unlock()
		}
		out := make([]workload.Workload, len(ws))
		for i, w := range ws {
			out[i] = wrapWorkload(w, first)
		}
		return out, nil
	}
}

// passResult is one complete pass of a matrix through fleet.Run.
type passResult struct {
	dir        string
	cells      int
	shards     []timed     // each shard run's interval
	shardCells [][]float64 // every cell time of each shard run, ms
	wallNS     int64       // Σ shard wall time
	slotNS     int64       // Σ shard wall × workers
	allocBytes uint64      // heap bytes allocated across the shard runs
	flushBytes int64       // Σ cells.jsonl size after each shard
	clock      *cellClock
}

// runPass runs the whole matrix as shards sequential fleet.Run calls into
// one fresh store under dir (power traces under dir/traces when traces is
// set), timing each shard and each cell.
func runPass(e *env, spec fleet.Spec, shards int, traces bool, dir string) (passResult, error) {
	res := passResult{dir: dir}
	passStart := e.tr.now()
	passID := e.tr.add("pass", 0, passStart, passStart)
	defer func() { e.tr.setEnd(passID, e.tr.now()) }()
	spec.StoreDir = filepath.Join(dir, "store")
	if traces {
		spec.TraceDir = filepath.Join(dir, "traces")
	}
	spec.Parallel = e.nproc
	cc := &cellClock{tr: e.tr}
	res.clock = cc
	for sh := range shards {
		s := spec
		if shards > 1 {
			s.ShardIndex, s.ShardCount = sh, shards
		}
		// Spans are opened before they run so their children can name them
		// as parents.
		e.speed.maybe()
		start := e.tr.now()
		cc.parent = e.tr.add("shard", passID, start, start)
		a0 := allocated()
		first := len(cc.cellMS)
		out, err := fleet.Run(e.ctx, cc.wrap(s))
		wall := e.tr.now() - start
		res.allocBytes += allocated() - a0
		e.tr.setEnd(cc.parent, start+wall)
		if err != nil {
			return res, err
		}
		n := len(out.Cells)
		res.cells += n
		res.wallNS += wall
		res.slotNS += wall * int64(min(e.nproc, n))
		res.shards = append(res.shards, timed{start, start + wall})
		res.shardCells = append(res.shardCells, append([]float64(nil), cc.cellMS[first:]...))
		fi, err := os.Stat(filepath.Join(spec.StoreDir, store.CellsFile))
		if err != nil {
			return res, err
		}
		res.flushBytes += fi.Size()
	}
	return res, nil
}

// renderStore is the store-backed read path: load the store, rebuild the
// study result, render its text report and CSV. It returns the time spent
// loading and rendering.
func renderStore(e *env, dir string) (loadNS, renderNS int64, err error) {
	start := e.tr.now()
	res, err := fleet.LoadStoreResult(dir)
	if err != nil {
		return 0, 0, err
	}
	loaded := e.tr.now()
	if err := res.WriteText(io.Discard); err != nil {
		return 0, 0, err
	}
	if err := res.WriteCSV(io.Discard); err != nil {
		return 0, 0, err
	}
	end := e.tr.now()
	e.tr.add("report", 0, start, end)
	return loaded - start, end - loaded, nil
}

// storeRoundTrip times the store's write path on a fixed record set —
// Open + Put of every record + Flush into a fresh directory — and its
// load path (Open of the result), returning both in ns.
func storeRoundTrip(e *env, recs []store.Record, dir string) (flushNS, loadNS int64, err error) {
	start := e.tr.now()
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range recs {
		st.Put(r)
	}
	if err := st.Flush(); err != nil {
		st.Close()
		return 0, 0, err
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	flushed := e.tr.now()
	st, err = store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	n := st.Len()
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	loaded := e.tr.now()
	if n != len(recs) {
		return 0, 0, fmt.Errorf("store round trip: wrote %d records, read %d", len(recs), n)
	}
	e.tr.add("store.flush", 0, start, flushed)
	e.tr.add("store.load", 0, flushed, loaded)
	return flushed - start, loaded - flushed, nil
}

// storeRecords reads every record of the store in dir.
func storeRecords(dir string) ([]store.Record, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Records(), nil
}

// traceBytes sums the compressed size of every trace file under dir.
func traceBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, en := range entries {
		if !strings.HasSuffix(en.Name(), ".trace.jsonl.gz") {
			continue
		}
		fi, err := en.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
