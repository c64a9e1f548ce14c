package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("zero-value summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got, want := s.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got, want := s.StdDev(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.Count() != 8 {
		t.Errorf("count = %d, want 8", s.Count())
	}
}

// TestSummaryMergeProperty: merging two summaries equals summarizing the
// concatenation.
func TestSummaryMergeProperty(t *testing.T) {
	prop := func(rawXs, rawYs []uint32) bool {
		scale := func(raw []uint32) []float64 {
			out := make([]float64, len(raw))
			for i, r := range raw {
				out[i] = float64(r%2_000_000)/1000 - 1000 // [-1000, 1000)
			}
			return out
		}
		var a, b, all Summary
		for _, x := range scale(rawXs) {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range scale(rawYs) {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(b)
		if a.Count() != all.Count() {
			return false
		}
		if a.Count() == 0 {
			return true
		}
		return math.Abs(a.Mean()-all.Mean()) < 1e-6*(1+math.Abs(all.Mean())) &&
			math.Abs(a.Variance()-all.Variance()) < 1e-4*(1+all.Variance()) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Add(42)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Error("reset summary not empty")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d, want 5", s.Len())
	}
	if got := s.At(2); got.At != 2*time.Second || got.Value != 2 {
		t.Errorf("At(2) = %+v", got)
	}
	if got, want := s.Mean(), 2.0; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Points and Values return copies.
	pts := s.Points()
	pts[0].Value = 99
	if s.At(0).Value == 99 {
		t.Error("Points leaked internal state")
	}
	vals := s.Values()
	vals[0] = 99
	if s.At(0).Value == 99 {
		t.Error("Values leaked internal state")
	}
	s.Reset()
	if s.Len() != 0 || s.Summary().Count() != 0 {
		t.Error("reset series not empty")
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Append(time.Duration(i), float64(i))
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{50, 50},
		{90, 90},
		{100, 100},
	}
	for _, tt := range tests {
		got, err := s.Percentile(tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	var empty Series
	if _, err := empty.Percentile(50); err == nil {
		t.Error("Percentile on empty series should fail")
	}
	if _, err := s.Percentile(-1); err == nil {
		t.Error("Percentile(-1) should fail")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Error("Percentile(101) should fail")
	}
}

func TestRelativeChange(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{100, 110, 0.10},
		{100, 90, -0.10},
		{0, 50, 0},
		{200, 200, 0},
	}
	for _, tt := range tests {
		if got := RelativeChange(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("RelativeChange(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestSeriesMarshalJSON: a series marshals as its point array — [] when
// empty (never null), the full point list otherwise — so JSON consumers
// can always iterate the trace.
func TestSeriesMarshalJSON(t *testing.T) {
	var s Series
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Errorf("empty series marshals as %s, want []", b)
	}
	s.Append(time.Second, 1.5)
	s.Append(2*time.Second, 2.5)
	b, err = json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	if err := json.Unmarshal(b, &pts); err != nil {
		t.Fatalf("series did not marshal as a point array: %v (%s)", err, b)
	}
	if len(pts) != 2 || pts[1].Value != 2.5 || pts[0].At != time.Second {
		t.Errorf("round-trip = %+v", pts)
	}
}

// TestSeriesReserve: reserving capacity keeps existing points and makes
// subsequent appends allocation-free up to the reservation.
func TestSeriesReserve(t *testing.T) {
	var s Series
	s.Append(time.Second, 1)
	s.Append(2*time.Second, 2)
	s.Reserve(100)
	if s.Len() != 2 || s.At(0).Value != 1 || s.At(1).Value != 2 {
		t.Fatal("Reserve dropped existing points")
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 90; i++ {
			s.Append(time.Duration(i), float64(i))
		}
		s.Reset()
		s.Append(0, 0) // Reset keeps capacity
	})
	if allocs > 0 {
		t.Errorf("appends within reserved capacity allocate %.1f objects/op", allocs)
	}
	// Shrinking reservations are no-ops.
	before := s.Len()
	s.Reserve(1)
	if s.Len() != before {
		t.Error("shrinking Reserve mutated the series")
	}
}

// TestSeriesClone: a clone must carry the same points and summary and be
// fully detached from the original's backing array.
func TestSeriesClone(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i*i))
	}
	c := s.Clone()
	if c.Len() != s.Len() || c.Summary() != s.Summary() {
		t.Fatal("clone differs from original")
	}
	for i := 0; i < s.Len(); i++ {
		if c.At(i) != s.At(i) {
			t.Fatalf("point %d differs", i)
		}
	}
	// Mutating the original (reset + refill, the arena lifecycle) must not
	// disturb the clone.
	s.Reset()
	s.Append(0, 999)
	if c.Len() != 5 || c.At(0).Value != 0 || c.At(4).Value != 16 {
		t.Error("clone shares storage with the original")
	}
	// Cloning an empty series yields an empty series.
	var empty Series
	if ec := empty.Clone(); ec.Len() != 0 {
		t.Error("empty clone not empty")
	}
}
