package main

import (
	"math"
	"sort"

	"mobicore/internal/metrics"
)

// pct is the nearest-rank percentile of vals (0 for no samples), the rule
// the repository's metrics package uses everywhere else.
func pct(vals []float64, p float64) float64 {
	v, err := metrics.PercentileOf(vals, p)
	if err != nil {
		return 0
	}
	return v
}

// quartiles returns the three quartile cut points of vals by the
// "exclusive" method — Python's statistics.quantiles(vals, n=4) default —
// so spreads computed here match the ones an outside script computes from
// the same run values. Fewer than two samples collapse to the one value.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	switch len(vals) {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure each end-to-end metric's bound is set against.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// fold accumulates one per-tick span name with bounded memory: an exact
// count and sum (for additive means) and a 1 ns histogram (for exact
// percentiles below histMax; the rare longer spans keep their raw values).
type fold struct {
	count int64
	sum   int64
	hist  []uint32
	over  []int64
}

// histMax bounds the histogram: 4 µs holds nearly every per-tick segment,
// and keeps the histograms (16 KiB each) small enough not to evict the
// simulator's own working set between ticks.
const histMax = 1 << 12

func (f *fold) add(ns int64) {
	f.count++
	f.sum += ns
	switch {
	case ns < 0:
		ns = 0
	case ns >= histMax:
		f.over = append(f.over, ns)
		return
	}
	if f.hist == nil {
		f.hist = make([]uint32, histMax)
	}
	f.hist[ns]++
}

// mean is the average span in ns (0 when empty).
func (f *fold) mean() float64 {
	if f == nil || f.count == 0 {
		return 0
	}
	return float64(f.sum) / float64(f.count)
}

// pct is the nearest-rank percentile in ns (0 when empty).
func (f *fold) pct(p float64) float64 {
	if f == nil || f.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(f.count)))
	rank = max(1, min(rank, f.count))
	var seen int64
	for ns, c := range f.hist {
		seen += int64(c)
		if seen >= rank {
			return float64(ns)
		}
	}
	over := append([]int64(nil), f.over...)
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return float64(over[rank-seen-1])
}
