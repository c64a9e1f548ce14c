package main

import (
	"math/rand"
	"testing"

	"mobicore/internal/metrics"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the method outside tools use to read
// the same run values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.5, 1.25, 9, 2, 2, 7, 11.5}, [3]float64{2, 3.5, 9}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestFoldPercentilesMatchExact checks the bounded-memory fold against the
// exact nearest-rank percentile, including spans past the histogram.
func TestFoldPercentilesMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f fold
	var vals []float64
	var sum int64
	for i := range 5000 {
		v := rng.Int63n(3000)
		if i%97 == 0 {
			v = histMax + rng.Int63n(1e6) // preemption-sized outliers
		}
		f.add(v)
		vals = append(vals, float64(v))
		sum += v
	}
	for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
		want, err := metrics.PercentileOf(vals, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.pct(p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got, want := f.mean(), float64(sum)/float64(len(vals)); got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
}
