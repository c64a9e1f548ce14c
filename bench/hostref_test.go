package main

import (
	"encoding/json"
	"math"
	"testing"
)

// TestHostSpeedFactor checks which kernel runs scale an operation: the
// last one that ended before it began and the first that began after it
// ended, averaged; one of them where only one exists; none where neither.
func TestHostSpeedFactor(t *testing.T) {
	h := &hostSpeed{
		start: []int64{0, 100, 300},
		ns:    []int64{10, 20, 40},
	}
	for _, c := range []struct {
		name       string
		start, end int64
		want       float64 // mean kernel time, ns
	}{
		{"between the first two", 50, 60, 15},
		{"touching both", 10, 100, 15},
		{"spanning a run", 50, 250, 25},
		{"between the last two", 150, 200, 30},
		{"after the last", 400, 500, 40},
		{"overlapping the first", 5, 50, 20},
	} {
		got := h.factor(c.start, c.end)
		if want := refNominalNS / c.want; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: factor %v, want %v", c.name, got, want)
		}
	}
	if got := (&hostSpeed{}).factor(0, 1); got != 1 {
		t.Errorf("no kernel runs: factor %v, want 1", got)
	}
}

// TestHostSpeedMaybe checks the kernel's schedule: maybe runs it at once,
// then not again until refEvery has passed.
func TestHostSpeedMaybe(t *testing.T) {
	var now int64
	h := newHostSpeed(func() int64 { return now })
	h.maybe()
	h.maybe()
	if len(h.start) != 1 {
		t.Fatalf("%d kernel runs at time 0, want 1", len(h.start))
	}
	now = refEvery - 1
	h.maybe()
	now = refEvery
	h.maybe()
	if len(h.start) != 2 || h.start[1] != refEvery {
		t.Fatalf("kernel runs began at %v, want [0 %v]", h.start, int64(refEvery))
	}
	var none *hostSpeed
	none.maybe() // the traced run's: does nothing
}

// TestReferenceKernel checks that the kernel re-encodes its document
// unchanged and allocates no more than the two scanners the json package
// pools (and drops now and then), so the simulator's heap cannot move its
// time.
func TestReferenceKernel(t *testing.T) {
	h := newHostSpeed(func() int64 { return 0 })
	if len(h.doc) < 400<<10 {
		t.Errorf("reference document is %d bytes, want more than an L2 cache", len(h.doc))
	}
	if !json.Valid(h.doc) || string(h.buf.Bytes()) != string(h.doc) {
		t.Error("the kernel changed its document")
	}
	if a := testing.AllocsPerRun(20, h.kernel); a > 2 {
		t.Errorf("kernel allocates %v times per run, want at most 2", a)
	}
}
