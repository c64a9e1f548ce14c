// Package metrics provides the small statistics toolkit every experiment in
// the reproduction uses: online summaries (Welford), time series, and
// percentile extraction. Only what the thesis' plots need — means, minima,
// maxima, standard deviations, and sampled traces.
package metrics

import (
	"encoding/json"
	"errors"
	"math"
	"sort"
	"time"
)

// Summary accumulates scalar samples using Welford's online algorithm,
// giving numerically stable mean and variance without retaining samples.
// The zero value is ready to use.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Count returns the number of samples.
func (s Summary) Count() uint64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Min returns the smallest sample, or 0 with no samples.
func (s Summary) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s Summary) Max() float64 { return s.max }

// Variance returns the population variance.
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// SampleStdDev returns the sample (n-1, Bessel-corrected) standard
// deviation — the spread estimate the confidence intervals are built on;
// 0 for fewer than two samples.
func (s Summary) SampleStdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Merge folds other into s, as if every sample of other had been Added.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n := s.n + other.n
	delta := other.mean - s.mean
	mean := s.mean + delta*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + delta*delta*float64(s.n)*float64(other.n)/float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Reset clears the summary.
func (s *Summary) Reset() { *s = Summary{} }

// Point is one timestamped sample in a Series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is an append-only timestamped sample log. The zero value is ready
// to use. Not safe for concurrent use.
type Series struct {
	points []Point
	sum    Summary
}

// Append records a sample at time at.
func (s *Series) Append(at time.Duration, v float64) {
	s.points = append(s.points, Point{At: at, Value: v})
	s.sum.Add(v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th point.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns a copy of all points in append order.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Values returns a copy of the sample values in append order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.Value
	}
	return out
}

// MarshalJSON emits the series as its point list, so reports carrying
// Series fields export their traces instead of opaque empty objects
// (Series has only unexported fields and would otherwise marshal as {}).
// An empty series renders as [] rather than null, so consumers can always
// iterate the array.
func (s Series) MarshalJSON() ([]byte, error) {
	if len(s.points) == 0 {
		return []byte("[]"), nil
	}
	return json.Marshal(s.points)
}

// Summary returns the running summary of all appended values.
func (s *Series) Summary() Summary { return s.sum }

// Mean is shorthand for Summary().Mean().
func (s *Series) Mean() float64 { return s.sum.Mean() }

// ErrNoSamples is returned by Percentile on an empty series.
var ErrNoSamples = errors.New("metrics: no samples")

// Percentile returns the p-th percentile (0 <= p <= 100) using the
// nearest-rank method on a sorted copy.
func (s *Series) Percentile(p float64) (float64, error) {
	if len(s.points) == 0 {
		return 0, ErrNoSamples
	}
	if p < 0 || p > 100 {
		return 0, errors.New("metrics: percentile out of range")
	}
	vals := s.Values()
	sort.Float64s(vals)
	if p == 0 {
		return vals[0], nil
	}
	rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(vals) {
		rank = len(vals) - 1
	}
	return vals[rank], nil
}

// Reset clears the series.
func (s *Series) Reset() {
	s.points = s.points[:0]
	s.sum.Reset()
}

// Reserve grows the series' capacity to hold at least n points without
// further allocation, keeping any points already appended. Arenas call it
// once per session so steady-state appends never reallocate.
func (s *Series) Reserve(n int) {
	if cap(s.points) >= n {
		return
	}
	grown := make([]Point, len(s.points), n)
	copy(grown, s.points)
	s.points = grown
}

// Clone returns a deep copy of the series: same points and summary, its own
// exact-size backing array. Reports clone their series so the sampled traces
// survive the producing Sim's buffers being reused for the next session.
func (s *Series) Clone() Series {
	out := Series{sum: s.sum}
	if len(s.points) > 0 {
		out.points = make([]Point, len(s.points))
		copy(out.points, s.points)
	}
	return out
}

// RelativeChange returns (b-a)/a as a fraction; it is the "X% savings /
// X% higher" arithmetic used throughout the thesis' evaluation.
func RelativeChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
