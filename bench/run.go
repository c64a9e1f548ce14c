package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
	"mobicore/internal/monsoon"
	"mobicore/internal/platform"
	"mobicore/internal/power"
	"mobicore/internal/sim"
	"mobicore/internal/soc"
)

// env is one benchmark run's context.
type env struct {
	ctx    context.Context
	def    workloadDef
	seed   int64
	budget int64  // ns the run measures for
	work   string // the run's scratch directory, removed when it ends
	tr     *tracer
	speed  *hostSpeed // the end-to-end run's reference kernel; nil in the traced run
	nproc  int
	log    io.Writer

	attempted, failed int
	checkFrom         int64 // when the current check began
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one cold repetition does not move it.
const setupReps = 5

// digestCells is how many leading cells the session-level checks replay.
const digestCells = 8

// sliceCells is the size of the fleet slice the parallelism check runs.
const sliceCells = 10

func runWorkload(def workloadDef, seed int64, seconds float64, traced bool, log io.Writer) (*result, error) {
	e := &env{
		ctx:    context.Background(),
		def:    def,
		seed:   seed,
		budget: int64(seconds * 1e9),
		work:   filepath.Join(benchDir, "out", fmt.Sprintf("%s-%d", def.name, os.Getpid())),
		tr:     newTracer(),
		nproc:  runtime.NumCPU(),
		log:    log,
	}
	if !traced {
		e.speed = newHostSpeed(e.tr.now)
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	spec, cells, setup, err := e.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(log, "workload %s seed %d: %d cells, %d workers, trace %v\n", def.name, seed, len(cells), e.nproc, traced)

	var vals map[string]float64
	var passDir string
	if traced {
		vals, passDir, err = e.traced(spec, cells, setup)
	} else {
		vals, passDir, err = e.endToEnd(spec, cells, setup)
	}
	if err != nil {
		return nil, err
	}
	if e.speed != nil {
		fmt.Fprintln(log, e.speed)
	}
	e.checks(cells, passDir)

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ms, err := metricSet(defs, vals)
	if err != nil {
		return nil, err
	}
	if err := e.tr.write(filepath.Join(benchDir, "out", def.name+".spans.json")); err != nil {
		return nil, err
	}
	return &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: ms}, nil
}

// timed is one measured operation's interval on the run's clock.
type timed struct{ start, end int64 }

// scaledMS is the median time of ops in ms, each scaled to the reference
// speed (see hostSpeed).
func (e *env) scaledMS(ops []timed) float64 {
	ms := make([]float64, len(ops))
	for i, t := range ops {
		ms[i] = float64(t.end-t.start) / 1e6 * e.speed.factor(t.start, t.end)
	}
	return pct(ms, 50)
}

// setupTimes holds the timings of every set-up repetition.
type setupTimes struct {
	reps                          []timed
	compileMS, inputsMS, warmupMS []float64
}

// parts returns the median of each part of a repetition, unscaled.
func (st setupTimes) parts() (compileMS, inputsMS, warmupMS float64) {
	return pct(st.compileMS, 50), pct(st.inputsMS, 50), pct(st.warmupMS, 50)
}

// setup prepares the workload setupReps times and returns the last
// repetition's matrix and cells; the measurement loops add more
// repetitions spread over the run (see setupRep).
func (e *env) setup() (fleet.Spec, []fleet.Cell, *setupTimes, error) {
	st := &setupTimes{}
	var spec fleet.Spec
	var cells []fleet.Cell
	for range setupReps {
		var err error
		if spec, cells, err = e.setupRep(st); err != nil {
			return spec, nil, nil, err
		}
	}
	return spec, cells, st, nil
}

// setupRep is one set-up repetition, timed into st. It compiles the
// platform (bypassing the process cache); generates the inputs from the
// seed, writing and reading back recorded traces; expands the matrix, and
// for fleet workloads cuts its shard plan and creates the store; and runs
// the first cell once as a warm-up session, so lazy process state (the
// platform cache, the allocator) is in place before anything is measured.
// A warm-up inside the timing keeps lazy first-use work visible in setup_s.
//
// Every repetition writes its traces over the same files. On the tuning
// host, creating files where deleted ones had just been took 3 to 5 times
// as long as rewriting them, and grew slower the more files a run had
// deleted, which set-up time then measured instead of the program.
func (e *env) setupRep(st *setupTimes) (fleet.Spec, []fleet.Cell, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", len(st.reps)))
	defer os.RemoveAll(dir)
	e.speed.maybe()
	start := e.tr.now()
	plat := e.def.plat()
	if _, err := platform.Compile(plat); err != nil {
		return fleet.Spec{}, nil, err
	}
	compiled := e.tr.now()
	spec, err := e.def.build(e.seed, plat, filepath.Join(e.work, "inputs"))
	if err != nil {
		return fleet.Spec{}, nil, err
	}
	cells, err := spec.Cells()
	if err != nil {
		return fleet.Spec{}, nil, err
	}
	if e.def.fleet {
		if _, err := spec.ShardPlan(e.def.shards); err != nil {
			return fleet.Spec{}, nil, err
		}
		s, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			return fleet.Spec{}, nil, err
		}
		if err := s.Close(); err != nil {
			return fleet.Spec{}, nil, err
		}
	}
	prepared := e.tr.now()
	sp, err := sessionOf(cells[0])
	if err == nil {
		_, err = sp.Run(e.ctx)
	}
	if err != nil {
		return fleet.Spec{}, nil, fmt.Errorf("warm-up session: %w", err)
	}
	end := e.tr.now()
	e.tr.add("setup", 0, start, end)
	st.reps = append(st.reps, timed{start, end})
	st.compileMS = append(st.compileMS, float64(compiled-start)/1e6)
	st.inputsMS = append(st.inputsMS, float64(prepared-compiled)/1e6)
	st.warmupMS = append(st.warmupMS, float64(end-prepared)/1e6)
	return spec, cells, nil
}

// setupSpacing spreads extra set-up repetitions over the measured window —
// one per budget/setupSpacing — so setup_s, a median over repetitions,
// samples the whole run rather than one moment of it.
const setupSpacing = 24

// setupTimer schedules the extra set-up repetitions of a measured window
// and keeps their allocations out of the window's.
type setupTimer struct {
	e     *env
	st    *setupTimes
	next  int64
	done  int    // extra repetitions run so far
	alloc uint64 // heap bytes the extra repetitions allocated
}

// maybe runs every repetition that has come due, so a loop whose steps are
// longer than the spacing (a fleet pass) still gets its share; a window
// gets setupSpacing of them at most.
func (t *setupTimer) maybe() error {
	for t.done < setupSpacing && t.e.tr.now() >= t.next {
		t.done++
		t.next += t.e.budget / setupSpacing
		a0 := allocated()
		_, _, err := t.e.setupRep(t.st)
		t.alloc += allocated() - a0
		if err != nil {
			return err
		}
	}
	return nil
}

// op counts one measured operation (a session or a fleet cell) and whether
// it failed.
func (e *env) op(n int, err error) {
	e.attempted += n
	if err != nil {
		e.failed += n
		fmt.Fprintf(e.log, "error: %v\n", err)
	}
}

// The session loop keeps the reports of its first reportsKept cells and,
// every renderEvery sessions, renders one of them (round robin), so the
// report_ms samples spread over the whole run. Each fleet pass renders its
// store's report at least renderReps times, and until the renders have
// taken 1/renderShare of the pass's shard time, so that a small store's
// quick report gets as many samples as it needs.
const (
	reportsKept = 4
	renderEvery = 16
	renderReps  = 4
	renderShare = 10
)

// A time metric is a median over many repetitions of each input, every
// repetition scaled to the reference speed (see hostSpeed): a session
// workload cycles through its cells and takes each cell's median session;
// a fleet workload repeats whole passes and takes each shard's median run,
// and the median over every cell of every pass. A change that slows the
// code slows every repetition alike, so the median moves with it.

// endToEnd measures the untraced run until the budget is spent (at least
// one session or pass). It returns the end-to-end metrics and, for fleet
// workloads, the first pass's directory for the checks.
func (e *env) endToEnd(spec fleet.Spec, cells []fleet.Cell, st *setupTimes) (map[string]float64, string, error) {
	if e.def.fleet {
		return e.endToEndFleet(spec, st)
	}
	sessions := make([][]timed, len(cells)) // every session of each cell
	var (
		kept    []*sim.Report
		renders [reportsKept][]timed
		simRun  float64
	)
	start := e.tr.now()
	deadline := start + e.budget
	sched := &setupTimer{e: e, st: st, next: start}
	a0 := allocated()
	var renderAlloc uint64
	render := func(j int) {
		e.speed.maybe()
		b0 := allocated()
		t0 := e.tr.now()
		err := renderReport(kept[j])
		t1 := e.tr.now()
		renderAlloc += allocated() - b0
		e.op(0, err)
		e.tr.add("report", 0, t0, t1)
		renders[j] = append(renders[j], timed{t0, t1})
	}
	for i := 0; i == 0 || e.tr.now() < deadline; i++ {
		if err := sched.maybe(); err != nil {
			return nil, "", err
		}
		if i > 0 && i%renderEvery == 0 && len(kept) > 0 {
			render((i / renderEvery) % len(kept))
		}
		k := i % len(cells)
		e.speed.maybe()
		t0 := e.tr.now()
		sp, err := sessionOf(cells[k])
		var rep *sim.Report
		if err == nil {
			rep, err = sp.Run(e.ctx)
		}
		t1 := e.tr.now()
		e.op(1, err)
		if err != nil {
			continue
		}
		e.tr.add("session", 0, t0, t1)
		simRun += cells[k].Duration.Seconds()
		sessions[k] = append(sessions[k], timed{t0, t1})
		if i == len(kept) && i < reportsKept {
			kept = append(kept, rep)
		}
	}
	for j := range kept {
		if len(renders[j]) == 0 {
			// A run too short to reach the render schedule renders once.
			render(j)
		}
	}
	e.speed.sample()
	alloc := float64(allocated() - a0 - sched.alloc - renderAlloc)
	rss := peakRSSMB()

	var cellMS []float64
	var simS, wallS float64
	for k, ops := range sessions {
		if len(ops) > 0 {
			ms := e.scaledMS(ops)
			cellMS = append(cellMS, ms)
			simS += cells[k].Duration.Seconds()
			wallS += ms / 1e3
		}
	}
	var reportMS []float64
	for _, ops := range renders {
		if len(ops) > 0 {
			reportMS = append(reportMS, e.scaledMS(ops))
		}
	}
	return map[string]float64{
		"sim_s_per_wall_s":   simS / wallS,
		"cells_per_s":        float64(len(cellMS)) / wallS,
		"cell_ms_p50":        pct(cellMS, 50),
		"report_ms":          pct(reportMS, 50),
		"setup_s":            e.scaledMS(st.reps) / 1e3,
		"peak_rss_mb":        rss,
		"alloc_mb_per_sim_s": alloc / 1e6 / simRun,
	}, "", nil
}

// renderReport is a session's report path as a user sees it: the text
// summary, then the indented JSON document.
func renderReport(rep *sim.Report) error {
	if err := rep.WriteSummary(io.Discard); err != nil {
		return err
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func (e *env) endToEndFleet(spec fleet.Spec, st *setupTimes) (map[string]float64, string, error) {
	var (
		passes          []passResult
		renders         []timed
		allocB          uint64
		simRun, simPass float64
		cellsPass       int
		firstDir        string
	)
	start := e.tr.now()
	deadline := start + e.budget
	sched := &setupTimer{e: e, st: st, next: start}
	for pass := 0; pass == 0 || e.tr.now() < deadline; pass++ {
		if err := sched.maybe(); err != nil {
			return nil, "", err
		}
		dir := filepath.Join(e.work, fmt.Sprintf("pass-%d", pass))
		pr, err := runPass(e, spec, e.def.shards, e.def.traces, dir)
		e.op(max(1, pr.cells), err)
		if err != nil {
			return nil, "", err
		}
		passes = append(passes, pr)
		allocB += pr.allocBytes
		simPass = float64(pr.cells) * spec.Duration.Seconds()
		simRun += simPass
		cellsPass = pr.cells
		var renderNS int64
		for r := 0; r < renderReps || renderNS*renderShare < pr.wallNS; r++ {
			e.speed.maybe()
			t0 := e.tr.now()
			if _, _, err := renderStore(e, filepath.Join(dir, "store")); err != nil {
				return nil, "", err
			}
			t1 := e.tr.now()
			renderNS += t1 - t0
			renders = append(renders, timed{t0, t1})
		}
		if pass == 0 {
			firstDir = dir
		} else if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
	}
	e.speed.sample()
	// Each shard index's time is the median of its scaled runs; a cell's
	// time is scaled by its shard run's factor.
	var wallS float64
	var cellMS []float64
	for i := range passes[0].shards {
		runs := make([]timed, len(passes))
		for p, pr := range passes {
			runs[p] = pr.shards[i]
			f := e.speed.factor(pr.shards[i].start, pr.shards[i].end)
			for _, ms := range pr.shardCells[i] {
				cellMS = append(cellMS, ms*f)
			}
		}
		wallS += e.scaledMS(runs) / 1e3
	}
	return map[string]float64{
		"sim_s_per_wall_s":   simPass / wallS,
		"cells_per_s":        float64(cellsPass) / wallS,
		"cell_ms_p50":        pct(cellMS, 50),
		"report_ms":          e.scaledMS(renders),
		"setup_s":            e.scaledMS(st.reps) / 1e3,
		"peak_rss_mb":        peakRSSMB(),
		"alloc_mb_per_sim_s": float64(allocB) / 1e6 / simRun,
	}, firstDir, nil
}

// fleetMatrix is the matrix the fleet-level measurements run: the whole
// study for the fleet workloads, the first fleetSlice sessions as fleet
// cells for the session workloads.
func (e *env) fleetMatrix(spec fleet.Spec, cells []fleet.Cell) (fleet.Spec, int) {
	if e.def.fleet {
		return spec, e.def.shards
	}
	const fleetSlice = 16
	return fleet.Spec{ExtraCells: cells[:min(fleetSlice, len(cells))]}, 1
}

// traced measures the per-layer metrics within the budget: isolated calls
// on the platform's models, one fleet pass with traces off and one with
// traces on plus the store's write and read paths, and then the per-tick
// probe until the budget is spent.
func (e *env) traced(spec fleet.Spec, cells []fleet.Cell, st *setupTimes) (map[string]float64, string, error) {
	deadline := e.tr.now() + e.budget
	compile, inputs, warmup := st.parts()
	vals := map[string]float64{
		"setup.compile_ms": compile,
		"setup.inputs_ms":  inputs,
		"setup.warmup_ms":  warmup,
	}
	if err := e.isolated(vals); err != nil {
		return nil, "", err
	}
	passDir, err := e.fleetLayers(spec, cells, vals)
	if err != nil {
		return nil, "", err
	}
	if err := e.tickLayers(cells, deadline, vals); err != nil {
		return nil, "", err
	}
	return vals, passDir, nil
}

// tickLayers runs the per-tick probe until deadline (at least one cell):
// each cell untraced, traced, and traced without the fast path, alternating
// which of the first two goes first so a slow phase of the host lands on
// both.
func (e *env) tickLayers(cells []fleet.Cell, deadline int64, vals map[string]float64) error {
	var fused, nofuse tickLayers
	var refNS, refTicks int64
	var timers []float64
	for i := 0; i == 0 || e.tr.now() < deadline; i++ {
		cell := cells[i%len(cells)]
		timer := timerCost(e.tr.now)
		timers = append(timers, timer)
		c := int64(math.Round(timer))
		untraced := func() error {
			sp, err := sessionOf(cell)
			if err != nil {
				return err
			}
			ns, ticks, err := stepSession(e, sp)
			refNS += ns
			refTicks += ticks
			return err
		}
		traced := func(l *tickLayers, noFuse bool) error {
			cell := cell
			cell.NoFuse = noFuse
			sp, err := sessionOf(cell)
			if err != nil {
				return err
			}
			_, err = traceSession(e, sp, l, c)
			return err
		}
		start := e.tr.now()
		var err error
		if i%2 == 0 {
			err = firstErr(untraced(), traced(&fused, false))
		} else {
			err = firstErr(traced(&fused, false), untraced())
		}
		err = firstErr(err, traced(&nofuse, true))
		e.tr.add("probe", 0, start, e.tr.now())
		e.op(1, err)
		if err != nil {
			return err
		}
	}
	ref := float64(refNS) / float64(refTicks)
	vals["trace.timer_ns"] = pct(timers, 50)
	vals["workload.tick_ns"] = fused.workload.pct(50)
	vals["sched.window_ns_fast"] = fused.windowFast.pct(50)
	vals["sched.window_ns_slow"] = fused.windowSlow.pct(50)
	vals["sched.window_ns_nofuse"] = nofuse.windowSlow.pct(50)
	vals["thermal.tail_ns"] = fused.tail.pct(50)
	vals["sim.step_ns_fast"] = fused.stepFast.pct(50)
	vals["sim.step_ns_slow"] = fused.stepSlow.pct(50)
	vals["sim.fast_tick_ratio"] = float64(fused.fast) / float64(fused.ticks)
	vals["sim.fuse_gain_ratio"] = nofuse.correctedMean() / fused.correctedMean()
	vals["sim.ticks"] = float64(fused.ticks)
	vals["sim.sample_ns"] = fused.sample.pct(50) - fused.tail.pct(50)
	vals["sim.session_new_us"] = pct(fused.newUS, 50)
	vals["sim.report_us"] = pct(fused.reportUS, 50)
	vals["policy.decide_ns"] = fused.decide.pct(50)
	vals["policy.decides"] = float64(fused.decide.count)
	vals["trace.overhead_pct"] = (fused.rawMean() - ref) / ref * 100
	vals["attribution.residual_pct"] = math.Abs(fused.correctedMean()-ref) / ref * 100
	fmt.Fprintf(e.log, "attribution: untraced %.1f ns/tick, traced %.1f raw, %.1f after timer correction (%d ticks)\n",
		ref, fused.rawMean(), fused.correctedMean(), fused.ticks)
	return nil
}

// fleetLayers runs the fleet-level measurements: the matrix (see
// fleetMatrix) once with traces off and once with traces on, then the
// store's write, load, and render paths on the resulting record set. It
// returns the directory of the pass in the workload's own trace setting,
// whose output the checks digest.
func (e *env) fleetLayers(spec fleet.Spec, cells []fleet.Cell, vals map[string]float64) (string, error) {
	matrix, shards := e.fleetMatrix(spec, cells)
	off, err := runPass(e, matrix, shards, false, filepath.Join(e.work, "pass-off"))
	e.op(max(1, off.cells), err)
	if err != nil {
		return "", err
	}
	on, err := runPass(e, matrix, shards, true, filepath.Join(e.work, "pass-on"))
	e.op(max(1, on.cells), err)
	if err != nil {
		return "", err
	}
	own := off
	if e.def.traces {
		own = on
	}
	cc := own.clock
	vals["fleet.cell_setup_us"] = pct(cc.buildUS, 50) + pct(cc.setupUS, 50)
	vals["fleet.cell_ms_p50"] = pct(cc.cellMS, 50)
	vals["fleet.cell_ms_p90"] = pct(cc.cellMS, 90)
	vals["fleet.worker_busy_ratio"] = float64(cc.busyNS) / float64(own.slotNS)
	vals["fleet.trace_export_share"] = float64(on.wallNS-off.wallNS) / float64(on.wallNS)
	tb, err := traceBytes(filepath.Join(on.dir, "traces"))
	if err != nil {
		return "", err
	}
	ticks := int64(on.cells) * tickCount(cells[0].Duration, cells[0].Tick)
	vals["fleet.trace_bytes_per_tick"] = float64(tb) / float64(ticks)
	vals["store.flush_bytes_total"] = float64(own.flushBytes)

	storeDir := filepath.Join(own.dir, "store")
	recs, err := storeRecords(storeDir)
	if err != nil {
		return "", err
	}
	var flushMS, loadMS, renderMS []float64
	for r := range setupReps {
		f, l, err := storeRoundTrip(e, recs, filepath.Join(e.work, fmt.Sprintf("store-%d", r)))
		if err != nil {
			return "", err
		}
		_, render, err := renderStore(e, storeDir)
		if err != nil {
			return "", err
		}
		flushMS = append(flushMS, float64(f)/1e6)
		loadMS = append(loadMS, float64(l)/1e6)
		renderMS = append(renderMS, float64(render)/1e6)
	}
	vals["store.flush_ms"] = pct(flushMS, 50)
	vals["store.load_ms"] = pct(loadMS, 50)
	vals["fleet.render_ms"] = pct(renderMS, 50)
	if !e.def.fleet {
		return "", nil
	}
	return own.dir, nil
}

// isolated times the per-tick models on fixed inputs, built from the
// platform's shared precompute exactly as a session builds them: the
// system power model at each core's middle OPP, one thermal network step,
// and one power-monitor observation.
func (e *env) isolated(vals map[string]float64) error {
	comp, err := e.def.plat().Compiled()
	if err != nil {
		return err
	}
	model, err := comp.NewSystemModel()
	if err != nil {
		return err
	}
	loads := make([]power.CoreLoad, len(comp.CoreCluster))
	for id, ci := range comp.CoreCluster {
		t := comp.Tables[ci]
		loads[id] = power.CoreLoad{State: soc.StateActive, OPP: t.At(t.Len() / 2), Util: 0.5}
	}
	per := make([]float64, len(comp.Specs))
	base, _ := model.SystemWattsByCluster(loads, per)
	vals["power.system_watts_ns"] = perCall(e, func() { model.SystemWattsByCluster(loads, per) })

	net, err := comp.NewThermalNetwork()
	if err != nil {
		return err
	}
	zones := make([]float64, len(per))
	for i, w := range per {
		zones[i] = w + base/float64(len(per))
	}
	if err := net.Step(zones, time.Millisecond); err != nil {
		return err
	}
	vals["thermal.network_step_ns"] = perCall(e, func() { net.Step(zones, time.Millisecond) })

	mon, err := monsoon.New(monsoon.DefaultConfig())
	if err != nil {
		return err
	}
	var now time.Duration
	vals["monsoon.observe_ns"] = perCall(e, func() {
		mon.Observe(now, 1.5, time.Millisecond)
		now += time.Millisecond
	})
	return nil
}

// perCall is the median per-call cost of f over batches of calls, in ns.
func perCall(e *env, f func()) float64 {
	const batches, calls = 31, 10000
	per := make([]float64, batches)
	for b := range per {
		start := e.tr.now()
		for range calls {
			f()
		}
		per[b] = float64(e.tr.now()-start) / calls
	}
	return pct(per, 50)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
