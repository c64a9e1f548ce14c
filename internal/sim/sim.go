// Package sim is the discrete-time engine that wires the substrates
// together: workloads deposit cycle demand, the scheduler places it on the
// SoC's online cores under the bandwidth quota, the power model integrates
// the rail, the per-cluster thermal network integrates each zone's
// temperature (and may cap its cluster's frequency like msm_thermal), and
// every sampling period the installed policy.Manager observes utilization
// and thermal pressure and reprograms frequency, core count, and quota —
// exactly the control loop a governor lives in on the real device.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mobicore/internal/metrics"
	"mobicore/internal/monsoon"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/randsrc"
	"mobicore/internal/sched"
	"mobicore/internal/soc"
	"mobicore/internal/thermal"
	"mobicore/internal/workload"
)

// Sim is one running simulation. Not safe for concurrent use.
type Sim struct {
	spec  SessionSpec // defaults filled
	cpu   *soc.CPU
	model *power.SystemModel
	net   *thermal.Network
	sch   sched.Scheduler
	rng   *rand.Rand
	mon   *monsoon.Monitor

	views       []policy.ClusterView // per-cluster tables + core ids, built once
	coreCluster []int                // core id -> cluster index (shared from the platform precompute)

	now       time.Duration
	quota     float64
	quotaPool float64  // shared bandwidth pool (seconds) remaining this period
	requested []soc.Hz // manager-requested per-core frequency, pre thermal clamp
	capGen    uint64   // thermal cap generation at the last re-clamp; the per-tick re-clamp runs only when a cap moved
	prGen     uint64   // thermal cap generation of the cached pressure view (capped/capScale)

	// quiescent-tick fast path: the retained scheduling window and the
	// integration tail it fuses with. The memo proves the thread-side
	// inputs unchanged and, through the CPU's change signal, that no core
	// was reprogrammed or hotplugged since the window was recorded
	// (sched.Memo.Match). Every full pass writes the tail; a recording pass
	// drops the window before it records and a pass the recording backoff
	// skips invalidates it, so a valid window always holds the tail of the
	// pass that armed it. A no-op policy decision keeps the window armed.
	memo      sched.Memo
	fast      fastState
	satRate   float64                 // saturation ceiling (cycles/sec): the platform's top ladder frequency
	hinters   []workload.SteadyHinter // cached SteadyHint views of spec.Workloads (nil where unimplemented)
	fastTicks uint64                  // ticks served by the fast path this session
	slowRun   int                     // full passes since the last replay (drives the recording backoff)

	// per-tick scratch, reused to keep the hot loop allocation-free
	util        []float64        // per-core utilization buffer
	busySec     []float64        // per-core busy-seconds buffer handed to the scheduler
	zoneWatts   []float64        // per-zone watts fed to the thermal network
	capped      []bool           // per-core thermal-cap flags for the scheduler
	capScale    []float64        // per-core headroom-aware capacity scale
	clusterFmax []float64        // per-cluster ladder top (shared from the platform precompute)
	threads     []*sched.Thread  // demand gathered from workloads this tick
	loads       []power.CoreLoad // per-core load view fed to the power model

	// per-sample scratch for the policy input, reused because managers
	// must not retain Input slices past Decide
	inUtil    []float64
	inThermal []policy.ThermalSignal
	clFreq    []float64
	clOnline  []int

	// window accumulators between manager samples
	winBusySec []float64
	winElapsed time.Duration
	lastSample time.Duration

	// run-wide accounting
	freqSum      metrics.Summary // avg online-core frequency, tick-weighted
	coreSum      metrics.Summary // online core count
	utilSum      metrics.Summary // overall (online-core average) utilization
	quotaSum     metrics.Summary
	tempSum      metrics.Summary // hottest-zone temperature, tick-weighted
	executed     float64
	throttledSec float64 // quota-denied core time
	thermalSec   float64 // Σ per-cluster capped time (aggregate residency)

	clusterFreqSum    []metrics.Summary // per-cluster avg online frequency, sampled
	clusterCoreSum    []metrics.Summary // per-cluster online count, sampled
	clusterTempSum    []metrics.Summary // per-cluster zone temperature, tick-weighted
	clusterThermalSec []float64         // per-cluster capped residency (seconds)
	clusterEnergyJ    []float64         // per-cluster energy attribution (joules)

	freqSeries  metrics.Series
	coreSeries  metrics.Series
	utilSeries  metrics.Series
	quotaSeries metrics.Series
	tempSeries  metrics.Series

	clusterFreqSeries   []metrics.Series
	clusterCoreSeries   []metrics.Series
	clusterTempSeries   []metrics.Series
	clusterEnergySeries []metrics.Series // cumulative per-cluster joules, sampled
}

// The scheduling memo's recording backoff (see recordPass).
const (
	memoMissStreak   = 4
	memoBackoffCycle = 32
)

// recordPass reports whether the n-th full pass since the last replay (n
// from 0) records a window: each of the first memoMissStreak, then those
// numbered by a power of two, then every memoBackoffCycle-th. A workload whose
// noise defeats the memo stops paying for windows nothing replays; one that
// goes quiet re-arms within a cycle, and sooner after a short miss streak
// (a duty cycle's transition, a boot transient).
func recordPass(n int) bool {
	return n < memoMissStreak || n%memoBackoffCycle == 0 || (n < memoBackoffCycle && n&(n-1) == 0)
}

// fastState is the integration tail of one tick: every scalar a full pass
// derives from the scheduling result and the power model, which commit then
// feeds to the monitor, thermal network and accumulators. Every full pass
// writes it, and a replayed tick commits the tail of the pass that armed
// the memo — the same float values added in the same order, so
// accumulators stay bit-identical.
type fastState struct {
	watts   float64   // total system watts
	base    float64   // platform floor share of watts
	per     []float64 // per-cluster watts (cores + uncore, floor excluded)
	winInc  []float64 // per-core winBusySec increment (0 for offline cores)
	online  int       // online core count
	avgFreq float64   // online-average frequency added to freqSum
	avgUtil float64   // online-average utilization added to utilSum
}

// newSim assembles the spec's simulation in the arena, the one
// construction path: the previous session's buffers ride along inside the
// arena's Sim and the reset below keeps only their capacity (an empty
// arena allocates every buffer anew). Construction consumes the platform's
// process-wide precompute (platform.Compiled): the per-cluster power
// models, energy model, thermal parameters, boot ladder, and core→cluster
// mapping are shared immutable state, so only the genuinely per-session
// pieces (the CPU, the thermal zones' integration state, the system
// model's evaluation scratch) are built here. The spec's Duration sizes
// the sampled series up front.
func newSim(spec SessionSpec, a *Arena) (*Sim, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	comp, err := spec.Platform.Compiled()
	if err != nil {
		return nil, err
	}
	cpu, err := comp.NewCPU()
	if err != nil {
		return nil, fmt.Errorf("sim: building CPU: %w", err)
	}
	model, err := comp.NewSystemModel()
	if err != nil {
		return nil, fmt.Errorf("sim: building power model: %w", err)
	}
	net, err := comp.NewThermalNetwork()
	if err != nil {
		return nil, fmt.Errorf("sim: building thermal network: %w", err)
	}

	s := &a.sim
	// Reusable state captured before the wholesale reset below: the
	// monitor keeps its trace buffer, the scheduler its window scratch,
	// the series their point buffers (each reset to length zero).
	mon := s.mon
	if mon == nil {
		mon = new(monsoon.Monitor)
	}
	if err := mon.Reuse(monsoon.DefaultConfig()); err != nil {
		return nil, fmt.Errorf("sim: resetting monitor: %w", err)
	}
	sch := s.sch
	sch.Placer = nil
	// The rng gives math/rand's stream for the seed (randsrc), but its
	// Seed costs O(1) rather than 1,841 dependent steps. Reseeding resets
	// the source and the Rand's read position, so the arena's rng yields
	// the stream a fresh one would; workloads hold it only during Tick.
	rng := s.rng
	if rng == nil {
		rng = rand.New(randsrc.New(spec.Seed))
	} else {
		rng.Seed(spec.Seed)
	}

	n := spec.Platform.NumCores
	nc := len(comp.Specs)
	views := resize(s.views, nc)
	for ci, cs := range comp.Specs {
		views[ci] = policy.ClusterView{Name: cs.Name, Table: cs.Table, CoreIDs: comp.ClusterCoreIDs[ci]}
	}
	agg := [5]metrics.Series{s.freqSeries, s.coreSeries, s.utilSeries, s.quotaSeries, s.tempSeries}
	for i := range agg {
		agg[i].Reset()
	}

	// Saturation ceiling for the scheduling memo: no core anywhere on the
	// platform grants more than ladder-top × dt cycles per tick, so demand
	// above that threshold drives every placement comparison identically
	// regardless of its exact magnitude.
	var satRate float64
	for _, fmax := range comp.ClusterFmaxHz {
		if fmax > satRate {
			satRate = fmax
		}
	}
	hinters := resize(s.hinters, len(spec.Workloads))
	for i, w := range spec.Workloads {
		h, _ := w.(workload.SteadyHinter)
		hinters[i] = h
	}

	// Every field of the Sim is assigned here; buffers resize to the
	// session's topology keeping whatever capacity the arena accumulated.
	// A field added to Sim must be (re)initialized in this literal or it
	// will leak state between arena cells.
	*s = Sim{
		spec:        spec,
		cpu:         cpu,
		model:       model,
		net:         net,
		sch:         sch,
		rng:         rng,
		mon:         mon,
		views:       views,
		coreCluster: comp.CoreCluster,
		quota:       1, // boot with the full bandwidth
		requested:   resize(s.requested, n),
		prGen:       ^uint64(0), // force the first tick to build the pressure view

		memo:                s.memo.Recycle(),
		fast:                fastState{per: resize(s.fast.per, nc), winInc: resize(s.fast.winInc, n)},
		satRate:             satRate,
		hinters:             hinters,
		util:                resize(s.util, n),
		busySec:             resize(s.busySec, n),
		zoneWatts:           resize(s.zoneWatts, nc),
		capped:              resize(s.capped, n),
		capScale:            resize(s.capScale, n),
		clusterFmax:         comp.ClusterFmaxHz,
		threads:             s.threads[:0],
		loads:               resize(s.loads, n),
		inUtil:              resize(s.inUtil, n),
		inThermal:           resize(s.inThermal, nc),
		clFreq:              resize(s.clFreq, nc),
		clOnline:            resize(s.clOnline, nc),
		winBusySec:          resize(s.winBusySec, n),
		clusterFreqSum:      resize(s.clusterFreqSum, nc),
		clusterCoreSum:      resize(s.clusterCoreSum, nc),
		clusterTempSum:      resize(s.clusterTempSum, nc),
		clusterThermalSec:   resize(s.clusterThermalSec, nc),
		clusterEnergyJ:      resize(s.clusterEnergyJ, nc),
		freqSeries:          agg[0],
		coreSeries:          agg[1],
		utilSeries:          agg[2],
		quotaSeries:         agg[3],
		tempSeries:          agg[4],
		clusterFreqSeries:   seriesBuf(s.clusterFreqSeries, nc),
		clusterCoreSeries:   seriesBuf(s.clusterCoreSeries, nc),
		clusterTempSeries:   seriesBuf(s.clusterTempSeries, nc),
		clusterEnergySeries: seriesBuf(s.clusterEnergySeries, nc),
	}
	if spec.Placer == PlacerEAS {
		placer, err := sched.NewEASPlacer(comp.EM)
		if err != nil {
			return nil, fmt.Errorf("sim: building EAS placer: %w", err)
		}
		s.sch.Placer = placer
	}
	s.refillQuota()
	if err := cpu.SetOnlineCount(spec.InitialCores); err != nil {
		return nil, fmt.Errorf("sim: initial hotplug: %w", err)
	}
	// Boot frequency: the configured operating point on homogeneous
	// platforms, each cluster's own maximum on heterogeneous ones (the
	// kernel boots every policy domain at its top bin before a governor
	// takes over).
	for ci, v := range views {
		boot := spec.InitialFreq // 0 on heterogeneous platforms
		if boot == 0 {
			boot = comp.BootFreqs[ci]
		}
		if err := cpu.SetClusterFreq(ci, boot); err != nil {
			return nil, fmt.Errorf("sim: initial frequency: %w", err)
		}
		for _, id := range v.CoreIDs {
			s.requested[id] = boot
		}
	}
	s.reserve(spec.Duration)
	return s, nil
}

// reserve preallocates the sampled series and the monitor trace for a
// session of duration d, so steady-state execution appends without growth
// reallocation. A non-positive d (open-ended sessions) reserves nothing.
func (s *Sim) reserve(d time.Duration) {
	if d <= 0 {
		return
	}
	// One sample per period plus slack for the final partial window.
	samples := int(d/s.spec.SamplePeriod) + 2
	for _, ser := range []*metrics.Series{&s.freqSeries, &s.coreSeries, &s.utilSeries, &s.quotaSeries, &s.tempSeries} {
		ser.Reserve(samples)
	}
	for _, group := range [][]metrics.Series{s.clusterFreqSeries, s.clusterCoreSeries, s.clusterTempSeries, s.clusterEnergySeries} {
		for i := range group {
			group[i].Reserve(samples)
		}
	}
	s.mon.Reserve(int(d/monsoon.DefaultConfig().SampleEvery) + 2)
}

// Now returns the current simulation time.
func (s *Sim) Now() time.Duration { return s.now }

// Quota returns the currently programmed bandwidth.
func (s *Sim) Quota() float64 { return s.quota }

// Step advances the simulation by one tick.
//
//mobicore:hotpath
func (s *Sim) Step() error {
	dt := s.spec.Tick

	// 1. Demand generation. The thread slice is per-tick scratch — the
	// scheduler never retains it past the call. Workloads that implement
	// SteadyHint vouch that this Tick changed no demand; when every
	// workload does, the quiescence check can skip the per-thread
	// set-membership scan.
	threads := s.threads[:0]
	steady := true
	for wi, w := range s.spec.Workloads {
		w.Tick(s.now, dt, s.rng)
		if h := s.hinters[wi]; h == nil || !h.SteadyHint() {
			steady = false
		}
		//mobilint:ignore append into pooled scratch; capacity amortizes across ticks
		threads = append(threads, w.Threads()...)
	}
	s.threads = threads

	// 2. The pressure view and the remaining bandwidth pool (CFS
	// group-quota semantics: full speed until the period's shared budget
	// drains). The scheduler sees which clusters are thermally
	// capped — and how deep each cap sits relative to the ladder top —
	// so placement steers backlog toward the cool ones with
	// headroom-aware capacity.
	if g := s.net.CapGen(); g != s.prGen {
		s.prGen = g
		for i, ci := range s.coreCluster {
			throttling := s.net.Throttling(ci)
			s.capped[i] = throttling
			if throttling && s.clusterFmax[ci] > 0 {
				s.capScale[i] = float64(s.net.CapFreq(ci)) / s.clusterFmax[ci]
			} else {
				s.capScale[i] = 1
			}
		}
	}
	pool := sched.Unlimited
	if s.quota < 1 {
		pool = s.quotaPool
	}
	pr := sched.Pressure{Capped: s.capped, CapScale: s.capScale}

	// 3. Scheduling and execution. Quiescent fast path: when the retained
	// window provably reproduces this tick's scheduling decision, replay it
	// and commit its integration tail.
	if s.memo.Match(s.cpu, threads, steady, pool, pr) {
		res := s.memo.ReplayInto(s.busySec)
		s.fastTicks++
		s.slowRun = 0
		return s.commit(dt, res, &s.fast)
	}

	// Recording backoff (recordPass). A pass that skips recording still
	// overwrites the tail below, so it drops the held window too.
	rec := &s.memo
	if s.spec.NoFuse || !recordPass(s.slowRun) {
		rec = nil
		s.memo.Invalidate()
	}
	s.slowRun++
	res, err := s.sch.Schedule(s.cpu, threads, dt, pool, pr, s.busySec, rec, s.satRate)
	if err != nil {
		return fmt.Errorf("sim: scheduling at %v: %w", s.now, err)
	}

	// Full pass: evaluate the power model into the tail, which replays of
	// a window this pass armed reuse. Overwriting it is safe: any older
	// window was dropped, by the scheduler before recording or above when
	// the backoff skipped recording. An online core is priced Idle: the
	// power model charges the idle floor only to a core with zero
	// utilization, so Idle and Active price a busy core alike.
	f := &s.fast
	util := res.UtilizationInto(s.util, dt)
	s.util = util
	dts := dt.Seconds()
	online := 0
	var freqAcc, overall float64
	opps := s.cpu.OPPs()
	for i, on := range s.cpu.Online() {
		state := soc.StateOffline
		f.winInc[i] = 0
		if on {
			state = soc.StateIdle
			online++
			freqAcc += float64(opps[i].Freq)
			overall += util[i]
			f.winInc[i] = util[i] * dts
		}
		s.loads[i] = power.CoreLoad{State: state, OPP: opps[i], Util: util[i]}
	}
	base, per := s.model.SystemWattsByCluster(s.loads, f.per)
	watts := base
	for _, w := range per {
		watts += w
	}
	f.watts, f.base, f.per, f.online = watts, base, per, online
	f.avgFreq, f.avgUtil = 0, 0
	if online > 0 {
		f.avgFreq = freqAcc / float64(online)
		f.avgUtil = overall / float64(online)
	}
	return s.commit(dt, res, f)
}

// commit finishes one tick from its scheduling result and integration tail,
// whether the tick was a full pass or a memo replay: result accounting,
// power observation, thermal integration, residency and run-wide
// accumulators, then the clock and policy sampling.
//
//mobicore:hotpath
func (s *Sim) commit(dt time.Duration, res sched.Result, f *fastState) error {
	s.busySec = res.BusySeconds
	s.executed += res.ExecutedCycles
	s.throttledSec += res.ThrottledSeconds
	s.quotaPool -= res.PoolUsedSec
	if s.quotaPool < 0 {
		s.quotaPool = 0
	}

	// 4. Power and thermal integration. Each zone integrates its own
	// cluster's share plus an even split of the platform floor; the network
	// adds the shared-die coupling. The cluster's own share (cores + uncore,
	// floor excluded) also feeds the per-cluster energy attribution the
	// report exposes.
	if err := s.mon.Observe(s.now, f.watts, dt); err != nil {
		return fmt.Errorf("sim: power observation: %w", err)
	}
	if s.spec.PowerTrace != nil {
		s.spec.PowerTrace(s.now, dt, f.watts, f.per)
	}
	dts := dt.Seconds()
	floorShare := f.base / float64(len(f.per))
	for ci, w := range f.per {
		s.zoneWatts[ci] = w + floorShare
		s.clusterEnergyJ[ci] += w * dts
	}
	if err := s.net.Step(s.zoneWatts, dt); err != nil {
		return fmt.Errorf("sim: thermal integration: %w", err)
	}
	for ci := range f.per {
		if s.net.Throttling(ci) {
			s.clusterThermalSec[ci] += dts
			s.thermalSec += dts
		}
		s.clusterTempSum[ci].Add(s.net.TempC(ci))
	}
	// Thermal driver acts between governor samples: re-clamp requests,
	// needed only on the rare tick where a zone's cap actually moved.
	if s.net.CapGen() != s.capGen {
		if err := s.applyFrequencies(); err != nil {
			return err
		}
	}

	// Run-wide accounting (tick-weighted).
	for i, inc := range f.winInc {
		s.winBusySec[i] += inc
	}
	if f.online > 0 {
		s.freqSum.Add(f.avgFreq)
		s.utilSum.Add(f.avgUtil)
	}
	s.coreSum.Add(float64(f.online))
	s.quotaSum.Add(s.quota)
	s.tempSum.Add(s.net.MaxTempC())

	s.now += dt
	s.winElapsed += dt

	// 5. Policy sampling.
	if s.now-s.lastSample >= s.spec.SamplePeriod {
		if err := s.samplePolicy(); err != nil {
			return err
		}
	}
	return nil
}

// FastTicks reports how many ticks the quiescent fast path has served this
// session — an observability hook for tests and benchmarks asserting the
// path engages (it never changes simulation output).
func (s *Sim) FastTicks() uint64 { return s.fastTicks }

// samplePolicy runs the manager against the accumulated window and applies
// its decision. The Input slices are the sim's pooled per-sample scratch
// and the CPU's own online flags and frequencies: managers read them for
// the duration of Decide only and must not write or retain them (every
// in-tree manager reduces the window to scalars). The decision's slices
// are the manager's until its next Decide, so TargetFreq is copied and
// OnlineVec applied before this returns.
func (s *Sim) samplePolicy() error {
	period := s.now - s.lastSample
	s.lastSample = s.now

	n := s.cpu.NumCores()
	in := policy.Input{
		Now:      s.now,
		Period:   period,
		Util:     resize(s.inUtil, n),
		Online:   s.cpu.Online(),
		CurFreq:  s.cpu.Freqs(),
		Quota:    s.quota,
		Clusters: s.views,
		Thermal:  resize(s.inThermal, len(s.views)),
	}
	s.inUtil, s.inThermal = in.Util, in.Thermal
	for ci := range s.views {
		in.Thermal[ci] = policy.ThermalSignal{
			TempC:      s.net.TempC(ci),
			HeadroomC:  s.net.HeadroomC(ci),
			Throttling: s.net.Throttling(ci),
			CapFreq:    s.net.CapFreq(ci),
		}
	}
	winSec := s.winElapsed.Seconds()
	for i, on := range in.Online {
		if winSec > 0 && on {
			u := s.winBusySec[i] / winSec
			if u > 1 {
				u = 1
			}
			in.Util[i] = u
		}
	}

	// The sampled utilization averages the window over the cores online
	// before the decision: in.Online is the CPU's live flags, which the
	// decision's hotplug moves.
	overallUtil := in.OverallUtil()

	dec, err := s.spec.Manager.Decide(in)
	if err != nil {
		return fmt.Errorf("sim: policy %s at %v: %w", s.spec.Manager.Name(), s.now, err)
	}
	if err := dec.Validate(s.views, n); err != nil {
		return fmt.Errorf("sim: policy %s produced invalid decision: %w", s.spec.Manager.Name(), err)
	}

	if dec.OnlineVec != nil {
		// Online-increasing clusters first: a valid vector may migrate
		// every core to another cluster (e.g. [0,4] while only cluster 0
		// is up), and shrinking first would momentarily leave the SoC
		// with no online core, which soc rejects.
		for _, grow := range []bool{true, false} {
			for ci, n := range dec.OnlineVec {
				cur, err := s.cpu.ClusterOnlineCount(ci)
				if err != nil {
					return fmt.Errorf("sim: reading cluster %d online count: %w", ci, err)
				}
				if (n > cur) != grow {
					continue
				}
				if err := s.cpu.SetClusterOnlineCount(ci, n); err != nil {
					return fmt.Errorf("sim: applying cluster %d hotplug decision: %w", ci, err)
				}
			}
		}
	} else if err := s.cpu.SetOnlineCount(dec.OnlineCores); err != nil {
		return fmt.Errorf("sim: applying hotplug decision: %w", err)
	}
	copy(s.requested, dec.TargetFreq)
	if err := s.applyFrequencies(); err != nil {
		return err
	}
	s.quota = dec.Quota
	s.refillQuota()

	// Record the sampled series, aggregate and per-cluster, from the CPU
	// as the decision left it.
	var freqAcc float64
	online := 0
	clFreq := resize(s.clFreq, len(s.views))
	clOnline := resize(s.clOnline, len(s.views))
	s.clFreq, s.clOnline = clFreq, clOnline
	freqs := s.cpu.Freqs()
	for i, on := range s.cpu.Online() {
		if on {
			f, ci := float64(freqs[i]), s.coreCluster[i]
			freqAcc += f
			online++
			clFreq[ci] += f
			clOnline[ci]++
		}
	}
	if online > 0 {
		s.freqSeries.Append(s.now, freqAcc/float64(online))
	}
	s.coreSeries.Append(s.now, float64(online))
	s.utilSeries.Append(s.now, overallUtil)
	s.quotaSeries.Append(s.now, s.quota)
	s.tempSeries.Append(s.now, s.net.MaxTempC())
	for ci := range s.views {
		avg := 0.0
		if clOnline[ci] > 0 {
			avg = clFreq[ci] / float64(clOnline[ci])
		}
		s.clusterFreqSeries[ci].Append(s.now, avg)
		s.clusterCoreSeries[ci].Append(s.now, float64(clOnline[ci]))
		s.clusterTempSeries[ci].Append(s.now, s.net.TempC(ci))
		s.clusterEnergySeries[ci].Append(s.now, s.clusterEnergyJ[ci])
		s.clusterFreqSum[ci].Add(avg)
		s.clusterCoreSum[ci].Add(float64(clOnline[ci]))
	}

	// Reset the window.
	for i := range s.winBusySec {
		s.winBusySec[i] = 0
	}
	s.winElapsed = 0
	return nil
}

// refillQuota grants the shared pool quota×numCores×SamplePeriod seconds of
// execution for the next enforcement period — the cgroup arrangement where
// the quota caps the group's aggregate CPU time as a fraction of the
// phone's total capacity, not each core's.
func (s *Sim) refillQuota() {
	s.quotaPool = s.quota * float64(s.cpu.NumCores()) * s.spec.SamplePeriod.Seconds()
}

// applyFrequencies programs each core to its requested frequency, clamped
// by the owning cluster's own thermal zone on its own ladder. A core whose
// frequency actually moves (a thermal clamp engaging or releasing between
// samples, or a policy decision) moves the CPU's change signal, which
// drops the memo's window.
//
//mobicore:hotpath
func (s *Sim) applyFrequencies() error {
	s.capGen = s.net.CapGen()
	cur := s.cpu.Freqs()
	for i, want := range s.requested {
		f := s.net.Clamp(s.coreCluster[i], want)
		if cur[i] == f {
			continue
		}
		if err := s.cpu.SetFreq(i, f); err != nil {
			return fmt.Errorf("sim: programming core %d to %v: %w", i, f, err)
		}
	}
	return nil
}

// Run advances the simulation by d and returns the report for the whole
// session so far.
func (s *Sim) Run(d time.Duration) (*Report, error) {
	return s.RunCtx(context.Background(), d)
}

// RunCtx is Run with cooperative cancellation: when ctx is done the loop
// stops between ticks and returns the report accumulated so far alongside
// ctx's error, so callers can render partial results after a SIGINT.
func (s *Sim) RunCtx(ctx context.Context, d time.Duration) (*Report, error) {
	if d <= 0 {
		return nil, errors.New("sim: run duration must be positive")
	}
	rep, _, err := s.run(ctx, d, false)
	return rep, err
}

// RunUntilDone advances until every workload reports Done or maxDur
// elapses, whichever is first. It returns the report and whether all
// workloads finished.
func (s *Sim) RunUntilDone(maxDur time.Duration) (*Report, bool, error) {
	return s.RunUntilDoneCtx(context.Background(), maxDur)
}

// RunUntilDoneCtx is RunUntilDone with cooperative cancellation: when ctx
// is done the loop stops between ticks and returns the partial report, a
// false done flag, and ctx's error.
func (s *Sim) RunUntilDoneCtx(ctx context.Context, maxDur time.Duration) (*Report, bool, error) {
	if maxDur <= 0 {
		return nil, false, errors.New("sim: max duration must be positive")
	}
	return s.run(ctx, maxDur, true)
}

// run is the tick loop behind RunCtx and RunUntilDoneCtx: it steps for d,
// stopping between ticks when ctx is done or, with untilDone, as soon as
// every workload reports Done. The flag reports a finished session: the
// whole of d ran, or (untilDone) every workload finished.
func (s *Sim) run(ctx context.Context, d time.Duration, untilDone bool) (*Report, bool, error) {
	end := s.now + d
	for s.now < end {
		if untilDone && allDone(s.spec.Workloads) {
			return s.report(), true, nil
		}
		select {
		case <-ctx.Done():
			return s.report(), false, ctx.Err()
		default:
		}
		if err := s.Step(); err != nil {
			return nil, false, err
		}
	}
	return s.report(), !untilDone || allDone(s.spec.Workloads), nil
}

func allDone(ws []workload.Workload) bool {
	for _, w := range ws {
		if !w.Done() {
			return false
		}
	}
	return true
}
