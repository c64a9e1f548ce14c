package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one coarse interval of a run: a set-up repetition, a session, a
// pass, a shard, a fleet cell, a report, a store round trip, a probed cell,
// or a check. Parent names the enclosing span's ID (0 for top level). Times
// are ns since the run began.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the run's clock and its in-memory span log. Spans may be
// recorded from fleet worker goroutines, so the log is locked; the clock
// itself is safe to read from anywhere.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the monotonic time since the run began, in ns.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// setEnd closes a span opened with add(name, parent, start, start), for
// spans whose children must name them before they finish.
func (t *tracer) setEnd(id int, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// write saves every recorded span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// timerCost calibrates the cost of one clock read through clock, in ns:
// the median over batches of back-to-back reads. Every per-tick segment
// brackets exactly one read's worth of clock overhead, which the probe
// subtracts. The probe calls it once per probed cell, through the same
// function value its hooks call, so the correction follows the host as it
// speeds up and slows down.
func timerCost(clock func() int64) float64 {
	const batches, reads = 7, 2000
	per := make([]float64, batches)
	var sink int64
	for b := range per {
		start := clock()
		for range reads {
			sink += clock()
		}
		per[b] = float64(clock()-start) / reads
	}
	_ = sink
	return pct(per, 50)
}
