package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"mobicore/internal/sim"
)

// cellRowFormat is the text report's cell row as a fmt format: the
// reference appendCellRow must match byte for byte.
const cellRowFormat = "%-16s %-18s %-16s %-8s %5d %10.2f %10.1f %8s %8s %10.2f\n"

// cellRowReference renders c's text-report row through fmt.
func cellRowReference(c *CellResult) string {
	fps, drop := "-", "-"
	if c.HasFrames {
		fps = fmt.Sprintf("%.1f", c.AvgFPS)
		drop = fmt.Sprintf("%.1f", c.DropRate*100)
	}
	return fmt.Sprintf(cellRowFormat,
		c.Platform, c.Policy, c.Workload, placerName(c.Placer), c.Seed,
		c.Report.EnergyJ, c.Report.AvgPowerW*1000, fps, drop,
		c.Report.ThermalCappedSec)
}

// checkTextRow requires appendCellRow to append exactly the fmt row after
// whatever the buffer already held.
func checkTextRow(t *testing.T, c *CellResult) {
	t.Helper()
	prefix := "prefix\n"
	got := string(appendCellRow([]byte(prefix), c))
	if want := prefix + cellRowReference(c); got != want {
		t.Fatalf("appendCellRow\n got %q\nwant %q", got[len(prefix):], want[len(prefix):])
	}
}

// FuzzTextRow compares the text report's appended cell row with fmt over
// arbitrary names (multi-byte, invalid UTF-8, wider than their column),
// seeds and float values (NaN, ±Inf, −0, subnormals, huge magnitudes).
func FuzzTextRow(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("Nexus 5", "mobicore", "busyloop", "", int64(1), 1.5, 0.25, 60.0, 0.01, 0.0, false)
	f.Add("Nexus 6P", "android-default", "Ångry Bïrds — niveau 3", "eas", int64(-12345678), 12.345, 0.7243, 59.95, 0.0049, 1.005, true)
	f.Add("Pixel·Ü", "mobicöre", "jeu-vidéo", "éas", int64(7), 0.5, 0.25, 30.0, 0.1, 0.0, true)
	f.Add("ÅÅÅÅÅÅÅÅÅÅÅÅÅÅÅÅÅÅ", "", "\xff\xfe", "greedy", int64(math.MaxInt64), negZero, negZero, negZero, negZero, negZero, true)
	f.Add("a", "b", "c", "d", int64(math.MinInt64), math.NaN(), math.Inf(1), math.Inf(-1), math.NaN(), math.Inf(-1), true)
	f.Add("", "", "", "", int64(0), 1e21, 5e-324, 1e300, -1e-300, math.MaxFloat64, true)
	f.Add("x", "y", "z", "w", int64(99999), 0.005, 0.05, 0.05, 0.0005, -0.004, false)
	f.Fuzz(func(t *testing.T, platform, policy, workload, placer string, seed int64,
		energy, power, fps, drop, throttle float64, frames bool) {
		checkTextRow(t, &CellResult{
			Platform:  platform,
			Policy:    policy,
			Workload:  workload,
			Placer:    placer,
			Seed:      seed,
			AvgFPS:    fps,
			DropRate:  drop,
			HasFrames: frames,
			Report: &sim.Report{
				EnergyJ:          energy,
				AvgPowerW:        power,
				ThermalCappedSec: throttle,
			},
		})
	})
}

// TestAppendFloatF compares appendFloatF with strconv's 'f' on half-way
// and carry cases, the fallbacks, and a sweep of values at the report's
// precisions.
func TestAppendFloatF(t *testing.T) {
	check := func(v float64, prec int) {
		t.Helper()
		var got, want [64]byte
		if g, w := appendFloatF(got[:0], v, prec), strconv.AppendFloat(want[:0], v, 'f', prec, 64); !bytes.Equal(g, w) {
			t.Fatalf("appendFloatF(%v, %d) = %s, want %s", v, prec, g, w)
		}
	}
	for _, v := range []float64{
		9.995, 0.005, 0.0005, -0.004, 1e21, 0.996, -0.996, 9.96, 99.95, 999.95, 0.05, 0.95, 0.15, 0.25, 2.5, 0.125,
		1, 10, 100, 0.1, 0.01, 0.001, 9.999999999999998, 0.09999999999999999, 1e15, 1e16, 123456789012345.67,
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		for prec := 0; prec <= 3; prec++ {
			check(v, prec)
			check(-v, prec)
		}
	}
	for i := -200000; i <= 200000; i++ {
		v := float64(i) / 1000
		check(v, 1)
		check(v, 2)
		check(v*1.0000001, 2)
	}
	x := uint64(1) // xorshift64 state: bit patterns of every magnitude
	for range 100000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		check(math.Float64frombits(x), 1)
		check(math.Float64frombits(x), 2)
		check(math.Ldexp(float64(x>>11)/(1<<53), int(x%80)-20), 2)
	}
}
