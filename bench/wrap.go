package main

import (
	"math/rand"
	"time"

	"mobicore/internal/policy"
	"mobicore/internal/workload"
)

// The timing wrappers observe a session from outside: they sit between the
// engine and the workload or manager it was handed, call back around the
// forwarded call, and change nothing else. Fidelity is the whole contract —
// the engine and the fleet driver probe workloads for optional interfaces
// (workload.SteadyHinter turns on the memo fast path, frameSource fills a
// cell's FPS columns), so a wrapper must implement each of those exactly
// when the wrapped value does, or it would measure a different program.

// frameSource is the game statistics surface the fleet driver reads.
type frameSource interface {
	AvgFPS() float64
	DropRate() float64
}

// timedWorkload forwards a workload and calls onTick after every Tick.
type timedWorkload struct {
	workload.Workload
	onTick func()
}

func (w *timedWorkload) Tick(now, dt time.Duration, rng *rand.Rand) {
	w.Workload.Tick(now, dt, rng)
	w.onTick()
}

type timedHinter struct {
	*timedWorkload
	h workload.SteadyHinter
}

func (w timedHinter) SteadyHint() bool { return w.h.SteadyHint() }

type timedFrames struct {
	*timedWorkload
	f frameSource
}

func (w timedFrames) AvgFPS() float64   { return w.f.AvgFPS() }
func (w timedFrames) DropRate() float64 { return w.f.DropRate() }

type timedHinterFrames struct {
	*timedWorkload
	h workload.SteadyHinter
	f frameSource
}

func (w timedHinterFrames) SteadyHint() bool  { return w.h.SteadyHint() }
func (w timedHinterFrames) AvgFPS() float64   { return w.f.AvgFPS() }
func (w timedHinterFrames) DropRate() float64 { return w.f.DropRate() }

// wrapWorkload wraps w so onTick runs after each of its Ticks, exposing
// SteadyHint and the frame statistics exactly when w does.
func wrapWorkload(w workload.Workload, onTick func()) workload.Workload {
	base := &timedWorkload{Workload: w, onTick: onTick}
	h, hint := w.(workload.SteadyHinter)
	f, frames := w.(frameSource)
	switch {
	case hint && frames:
		return timedHinterFrames{base, h, f}
	case hint:
		return timedHinter{base, h}
	case frames:
		return timedFrames{base, f}
	}
	return base
}

// timedManager forwards a policy manager. onDecide, when set, receives the
// raw clock span of every Decide; onName, when set, runs on every Name call
// — the engine asks for the name exactly once, while building the session
// report, which makes it the cell's end mark.
type timedManager struct {
	policy.Manager
	clock    func() int64
	onDecide func(ns int64)
	onName   func()
}

func (m *timedManager) Decide(in policy.Input) (policy.Decision, error) {
	if m.onDecide == nil {
		return m.Manager.Decide(in)
	}
	start := m.clock()
	dec, err := m.Manager.Decide(in)
	m.onDecide(m.clock() - start)
	return dec, err
}

func (m *timedManager) Name() string {
	if m.onName != nil {
		m.onName()
	}
	return m.Manager.Name()
}
