package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// canceled is an already-canceled context: Sim.RunCtx under it returns the
// session report without stepping, which isolates report construction.
var canceled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// tickLayers folds the per-tick segments of traced sessions. Clock reads
// taken from outside the engine bracket each Step and cut it twice: after
// the workload's Tick returns (timing wrapper), and when the engine calls
// the PowerTrace hook (after scheduling, the power model, and the
// monitor). Sample ticks add the manager's Decide span.
type tickLayers struct {
	workload   fold // step start → end of workload Tick
	windowFast fold // end of Tick → PowerTrace hook, memo-replayed ticks
	windowSlow fold // same segment, full scheduling pass
	tail       fold // PowerTrace hook → Step return, non-sample ticks
	stepFast   fold // whole Step, memo-replayed ticks
	stepSlow   fold // whole Step, full scheduling pass
	decide     fold // Manager.Decide
	sample     fold // sample-tick tail beyond Decide

	ticks, fast int64
	rawNS       int64     // Σ whole Steps, clock reads included
	newUS       []float64 // session construction (SessionSpec.New)
	reportUS    []float64 // report construction
}

// probe is the clock state one traced session's wrappers share.
type probe struct {
	tickEnd, hookAt int64
	decideNS        int64
	decided         bool
}

// instrument installs the probe's clock reads on a session: the workload
// and manager timing wrappers and the PowerTrace hook.
func instrument(sp sim.SessionSpec, p *probe, clock func() int64) sim.SessionSpec {
	wls := make([]workload.Workload, len(sp.Workloads))
	for i, w := range sp.Workloads {
		wls[i] = wrapWorkload(w, func() { p.tickEnd = clock() })
	}
	sp.Workloads = wls
	sp.Manager = &timedManager{Manager: sp.Manager, clock: clock, onDecide: func(ns int64) {
		p.decideNS += ns
		p.decided = true
	}}
	sp.PowerTrace = func(_, _ time.Duration, _ float64, _ []float64) { p.hookAt = clock() }
	return sp
}

// traceSession runs one session step by step with the probe installed,
// folding every tick into l. timer is the calibrated cost of one clock
// read, subtracted once per segment.
func traceSession(e *env, sp sim.SessionSpec, l *tickLayers, timer int64) (*sim.Report, error) {
	clock := e.tr.now
	p := &probe{}
	sp = instrument(sp, p, clock)
	start := clock()
	s, err := sp.New()
	if err != nil {
		return nil, err
	}
	l.newUS = append(l.newUS, float64(clock()-start)/1e3)
	for range tickCount(sp.Duration, sp.Tick) {
		p.decided, p.decideNS = false, 0
		fast0 := s.FastTicks()
		t0 := clock()
		if err := s.Step(); err != nil {
			return nil, err
		}
		t3 := clock()
		fast := s.FastTicks() != fast0

		wl := p.tickEnd - t0 - timer
		win := p.hookAt - p.tickEnd - timer
		tail := t3 - p.hookAt - timer
		step := t3 - t0 - 3*timer
		l.rawNS += t3 - t0
		if p.decided {
			// The Decide span holds one clock read's worth of overhead and
			// the tail two more (the reads that bracket Decide).
			d := p.decideNS - timer
			tail -= p.decideNS + timer
			step -= 2 * timer
			l.decide.add(d)
			l.sample.add(tail)
		} else {
			l.tail.add(tail)
		}
		l.workload.add(wl)
		l.ticks++
		if fast {
			l.fast++
			l.windowFast.add(win)
			l.stepFast.add(step)
		} else {
			l.windowSlow.add(win)
			l.stepSlow.add(step)
		}
	}
	start = clock()
	rep, err := s.RunCtx(canceled, time.Nanosecond)
	if !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("building report: %v", err)
	}
	l.reportUS = append(l.reportUS, float64(clock()-start)/1e3)
	return rep, nil
}

// stepSession runs one session step by step with nothing installed and
// returns the stepping wall time and the tick count — the untraced per-tick
// reference the traced segments must add up to.
func stepSession(e *env, sp sim.SessionSpec) (wallNS, ticks int64, err error) {
	s, err := sp.New()
	if err != nil {
		return 0, 0, err
	}
	n := tickCount(sp.Duration, sp.Tick)
	start := e.tr.now()
	for range n {
		if err := s.Step(); err != nil {
			return 0, 0, err
		}
	}
	return e.tr.now() - start, n, nil
}

// tickCount is how many Steps a session of duration d takes at tick
// (0 selects the engine's default 1 ms), exactly as Sim.Run steps it.
func tickCount(d, tick time.Duration) int64 {
	if tick == 0 {
		tick = time.Millisecond
	}
	return int64((d + tick - 1) / tick)
}

// rawMean is the mean traced tick, clock reads included.
func (l *tickLayers) rawMean() float64 {
	if l.ticks == 0 {
		return 0
	}
	return float64(l.rawNS) / float64(l.ticks)
}

// correctedMean is the mean corrected per-tick cost of the traced ticks:
// the sum of every segment's self time over the tick count.
func (l *tickLayers) correctedMean() float64 {
	if l.ticks == 0 {
		return 0
	}
	sum := l.workload.sum + l.windowFast.sum + l.windowSlow.sum + l.tail.sum + l.decide.sum + l.sample.sum
	return float64(sum) / float64(l.ticks)
}
