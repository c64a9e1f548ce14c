package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// The host this benchmark was tuned on is shared, and slows down by up to
// 2x in phases that last from a second to minutes. A phase slows the
// simulator and the standard library's JSON scanner alike, and hardly
// slows a hash loop, a memory stream or a pointer chase. Neither medians
// nor fastest repetitions remove a phase that covers a whole run.
//
// So every end-to-end run times a fixed reference kernel between its
// measured operations and scales each operation's time by how fast the
// kernel ran around it. The kernel re-encodes a fixed JSON document with
// json.Compact and checks it with json.Valid: standard library only, so no
// change to the repository moves it, and it allocates nothing but the json
// package's pooled scanners, so the simulator's heap and garbage collector
// do not move it either. README.md compares it with the other kernels
// tried.

// refRows sizes the kernel's document at about 480 KB, more than a core's
// L2 cache, as the simulator's and the store's working sets are.
const refRows = 800

// refEvery is how often the kernel runs while a run measures, in ns: often
// enough to follow the host's phases, rarely enough to cost about 5% of
// the run.
const refEvery = 150e6

// refNominalNS is about the kernel's 10th-percentile time on the tuning
// host, in ns. Scaled times are times at that speed, so there they read
// close to wall-clock times in a calm phase.
const refNominalNS = 6e6

// hostSpeed is the reference kernel and the record of its runs.
type hostSpeed struct {
	clock func() int64
	doc   []byte
	buf   bytes.Buffer
	next  int64   // when maybe runs the kernel again
	start []int64 // when each kernel run began
	ns    []int64 // how long each kernel run took
}

func newHostSpeed(clock func() int64) *hostSpeed {
	h := &hostSpeed{clock: clock, doc: refDoc()}
	h.kernel() // sizes the buffer and fills the scanner pools
	return h
}

// refDoc is the kernel's input, the same for every run: a JSON array of
// refRows records with string, integer, float, boolean and nested fields.
func refDoc() []byte {
	type row struct {
		Key    string             `json:"key"`
		Name   string             `json:"name"`
		Seed   int64              `json:"seed"`
		Vals   [24]float64        `json:"vals"`
		Extra  map[string]float64 `json:"extra"`
		Flag   bool               `json:"flag"`
		Series []float64          `json:"series"`
	}
	rows := make([]row, refRows)
	for i := range rows {
		r := row{
			Key:   fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15),
			Name:  fmt.Sprintf("row-%d", i),
			Seed:  int64(i),
			Extra: map[string]float64{"a": float64(i) / 3, "b": float64(i) * 1.7},
		}
		for j := range r.Vals {
			r.Vals[j] = float64(i*31+j) / 7.3
		}
		for j := range 8 {
			r.Series = append(r.Series, float64(i+j)/11)
		}
		rows[i] = r
	}
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err) // a fixed document of plain values always encodes
	}
	return b
}

func (h *hostSpeed) kernel() {
	h.buf.Reset()
	if err := json.Compact(&h.buf, h.doc); err != nil || !json.Valid(h.buf.Bytes()) {
		panic(fmt.Sprintf("bench: the reference document does not re-encode: %v", err))
	}
}

// sample runs the kernel once and records it.
func (h *hostSpeed) sample() {
	start := h.clock()
	h.kernel()
	end := h.clock()
	h.start = append(h.start, start)
	h.ns = append(h.ns, end-start)
	h.next = end + refEvery
}

// maybe runs the kernel when refEvery has passed since its last run. The
// traced run has no hostSpeed; on a nil one, maybe does nothing.
func (h *hostSpeed) maybe() {
	if h != nil && h.clock() >= h.next {
		h.sample()
	}
}

// String summarizes the kernel's runs: how many, and their times.
func (h *hostSpeed) String() string {
	ms := make([]float64, len(h.ns))
	for i, ns := range h.ns {
		ms[i] = float64(ns) / 1e6
	}
	return fmt.Sprintf("reference kernel: %d runs, p10 %.2f ms, median %.2f ms, p90 %.2f ms (scaled to %.2f ms)",
		len(ms), pct(ms, 10), pct(ms, 50), pct(ms, 90), refNominalNS/1e6)
}

// factor is what scales the time of an operation that ran over
// [start, end] to the reference speed: refNominalNS over the mean time of
// the last kernel run before the operation and the first one after it. A
// measuring loop samples the kernel before its first operation and after
// its last, so every operation has both; with neither, the factor is 1.
func (h *hostSpeed) factor(start, end int64) float64 {
	before := sort.Search(len(h.start), func(i int) bool { return h.start[i]+h.ns[i] > start }) - 1
	after := sort.Search(len(h.start), func(i int) bool { return h.start[i] >= end })
	var sum, n int64
	if before >= 0 {
		sum, n = sum+h.ns[before], n+1
	}
	if after < len(h.start) {
		sum, n = sum+h.ns[after], n+1
	}
	if n == 0 {
		return 1
	}
	return refNominalNS * float64(n) / float64(sum)
}
