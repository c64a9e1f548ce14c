package soc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testTable(t *testing.T) *OPPTable {
	t.Helper()
	return MSM8974Table()
}

func TestNewOPPTableValidation(t *testing.T) {
	tests := []struct {
		name    string
		points  []OPP
		wantErr bool
	}{
		{"empty", nil, true},
		{"single", []OPP{{Freq: 300 * MHz, Volt: 0.9}}, false},
		{"zero frequency", []OPP{{Freq: 0, Volt: 0.9}}, true},
		{"zero voltage", []OPP{{Freq: 300 * MHz, Volt: 0}}, true},
		{"negative voltage", []OPP{{Freq: 300 * MHz, Volt: -1}}, true},
		{"duplicate frequency", []OPP{{Freq: 300 * MHz, Volt: 0.9}, {Freq: 300 * MHz, Volt: 1.0}}, true},
		{"voltage inversion", []OPP{{Freq: 300 * MHz, Volt: 1.0}, {Freq: 600 * MHz, Volt: 0.9}}, true},
		{"unsorted input accepted", []OPP{{Freq: 600 * MHz, Volt: 1.0}, {Freq: 300 * MHz, Volt: 0.9}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewOPPTable(tt.points)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewOPPTable(%v) error = %v, wantErr %v", tt.points, err, tt.wantErr)
			}
		})
	}
}

func TestMSM8974TableShape(t *testing.T) {
	table := testTable(t)
	if got, want := table.Len(), 14; got != want {
		t.Fatalf("table has %d OPPs, want %d (Table 1: 14 frequencies)", got, want)
	}
	if got, want := table.Min().Freq, 300*MHz; got != want {
		t.Errorf("min frequency = %v, want %v", got, want)
	}
	if got, want := table.Max().Freq, 2_265_600*KHz; got != want {
		t.Errorf("max frequency = %v, want %v", got, want)
	}
	if got, want := table.Min().Volt, Volt(0.9); got != want {
		t.Errorf("min voltage = %v, want %v", got, want)
	}
	if got, want := table.Max().Volt, Volt(1.2); got != want {
		t.Errorf("max voltage = %v, want %v", got, want)
	}
}

func TestOPPTableMonotonicity(t *testing.T) {
	table := testTable(t)
	pts := table.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Freq <= pts[i-1].Freq {
			t.Errorf("frequency not strictly increasing at %d: %v after %v", i, pts[i].Freq, pts[i-1].Freq)
		}
		if pts[i].Volt < pts[i-1].Volt {
			t.Errorf("voltage decreasing at %d: %v after %v", i, pts[i].Volt, pts[i-1].Volt)
		}
	}
}

func TestCeilFloorFreq(t *testing.T) {
	table := testTable(t)
	tests := []struct {
		target    Hz
		wantCeil  Hz
		wantFloor Hz
	}{
		{0, 300 * MHz, 300 * MHz},
		{300 * MHz, 300 * MHz, 300 * MHz},
		{301 * MHz, 422_400 * KHz, 300 * MHz},
		{1 * GHz, 1_036_800 * KHz, 960_000 * KHz},
		{2_265_600 * KHz, 2_265_600 * KHz, 2_265_600 * KHz},
		{3 * GHz, 2_265_600 * KHz, 2_265_600 * KHz},
	}
	for _, tt := range tests {
		if got := table.CeilFreq(tt.target).Freq; got != tt.wantCeil {
			t.Errorf("CeilFreq(%v) = %v, want %v", tt.target, got, tt.wantCeil)
		}
		if got := table.FloorFreq(tt.target).Freq; got != tt.wantFloor {
			t.Errorf("FloorFreq(%v) = %v, want %v", tt.target, got, tt.wantFloor)
		}
	}
}

func TestCeilFreqProperties(t *testing.T) {
	table := testTable(t)
	fmax := table.Max().Freq
	prop := func(raw uint64) bool {
		target := Hz(raw % uint64(3*GHz))
		got := table.CeilFreq(target)
		if !table.Contains(got.Freq) {
			return false
		}
		// Ceil never returns below the target unless clamped at max.
		if got.Freq < target && got.Freq != fmax {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestFloorFreqProperties(t *testing.T) {
	table := testTable(t)
	fmin := table.Min().Freq
	prop := func(raw uint64) bool {
		target := Hz(raw % uint64(3*GHz))
		got := table.FloorFreq(target)
		if !table.Contains(got.Freq) {
			return false
		}
		if got.Freq > target && got.Freq != fmin {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestStepUpDown(t *testing.T) {
	table := testTable(t)
	mid := table.At(5).Freq // 960 MHz
	if got, want := table.StepUp(mid, 1).Freq, table.At(6).Freq; got != want {
		t.Errorf("StepUp(%v,1) = %v, want %v", mid, got, want)
	}
	if got, want := table.StepDown(mid, 1).Freq, table.At(4).Freq; got != want {
		t.Errorf("StepDown(%v,1) = %v, want %v", mid, got, want)
	}
	if got, want := table.StepUp(table.Max().Freq, 3).Freq, table.Max().Freq; got != want {
		t.Errorf("StepUp clamping = %v, want %v", got, want)
	}
	if got, want := table.StepDown(table.Min().Freq, 3).Freq, table.Min().Freq; got != want {
		t.Errorf("StepDown clamping = %v, want %v", got, want)
	}
}

func TestIndexOfAndVoltageFor(t *testing.T) {
	table := testTable(t)
	for i, p := range table.Points() {
		if got := table.IndexOf(p.Freq); got != i {
			t.Errorf("IndexOf(%v) = %d, want %d", p.Freq, got, i)
		}
		v, err := table.VoltageFor(p.Freq)
		if err != nil {
			t.Fatalf("VoltageFor(%v): %v", p.Freq, err)
		}
		if v != p.Volt {
			t.Errorf("VoltageFor(%v) = %v, want %v", p.Freq, v, p.Volt)
		}
	}
	if got := table.IndexOf(301 * MHz); got != -1 {
		t.Errorf("IndexOf(non-OPP) = %d, want -1", got)
	}
	if _, err := table.VoltageFor(301 * MHz); err == nil {
		t.Error("VoltageFor(non-OPP) should fail")
	}
}

// TestIndexOfEdgeCases pins IndexOf on the ladder's edges: a hit returns
// the position, and a miss (between OPPs, zero, below the floor, above the
// top, the largest Hz) returns -1.
func TestIndexOfEdgeCases(t *testing.T) {
	table := testTable(t)
	lo, hi := table.Min().Freq, table.Max().Freq
	cases := []struct {
		freq Hz
		want int
	}{
		{lo, 0}, {hi, table.Len() - 1}, {table.At(1).Freq, 1},
		{0, -1}, {1, -1}, {lo - 1, -1}, {lo + 1, -1}, {table.At(1).Freq - 1, -1},
		{hi - 1, -1}, {hi + 1, -1}, {^Hz(0), -1},
	}
	for _, c := range cases {
		if got := table.IndexOf(c.freq); got != c.want {
			t.Errorf("IndexOf(%d) = %d, want %d", uint64(c.freq), got, c.want)
		}
	}
	one := MustOPPTable([]OPP{{Freq: 5 * MHz, Volt: 1}})
	for freq, want := range map[Hz]int{5 * MHz: 0, 0: -1, 4 * MHz: -1, 6 * MHz: -1} {
		if got := one.IndexOf(freq); got != want {
			t.Errorf("single-OPP IndexOf(%d) = %d, want %d", uint64(freq), got, want)
		}
	}
}

func TestUniformTable(t *testing.T) {
	table, err := UniformTable(5, 200*MHz, 1000*MHz, 0.95, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 5 {
		t.Fatalf("len = %d, want 5", table.Len())
	}
	if table.Min().Freq != 200*MHz || table.Max().Freq != 1000*MHz {
		t.Errorf("range = [%v,%v], want [200MHz,1GHz]", table.Min().Freq, table.Max().Freq)
	}
	if _, err := UniformTable(0, 200*MHz, 1000*MHz, 0.95, 1.25); err == nil {
		t.Error("UniformTable(0,...) should fail")
	}
}

func TestHzString(t *testing.T) {
	tests := []struct {
		f    Hz
		want string
	}{
		{2_265_600 * KHz, "2.266GHz"},
		{300 * MHz, "300MHz"},
		{5 * KHz, "5kHz"},
		{42, "42Hz"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", uint64(tt.f), got, tt.want)
		}
	}
}
