// Package soc models the system-on-chip substrate the paper's policies act
// on: per-core clocks and power states, operating performance points (OPPs),
// and platform profiles for the devices measured in the thesis.
//
// Governors never touch hardware directly; they observe utilization and
// program frequency and online state through the same narrow surface Linux
// exposes via sysfs, which is what makes the simulated SoC a faithful
// substitute for a rooted Nexus 5. That surface is each core's online flag
// and programmed operating point, which a CPU holds as plain per-core
// arrays. A CPU has one owner, the simulation that built it, and is read
// and written from that one goroutine; it carries no lock.
package soc

import (
	"errors"
	"fmt"
	"sort"
)

// Hz is a CPU frequency in hertz.
type Hz uint64

// Common frequency units.
const (
	KHz Hz = 1_000
	MHz Hz = 1_000_000
	GHz Hz = 1_000_000_000
)

// String renders a frequency in the most natural unit.
func (f Hz) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.4gGHz", float64(f)/float64(GHz))
	case f >= MHz:
		return fmt.Sprintf("%.4gMHz", float64(f)/float64(MHz))
	case f >= KHz:
		return fmt.Sprintf("%.4gkHz", float64(f)/float64(KHz))
	default:
		return fmt.Sprintf("%dHz", uint64(f))
	}
}

// Volt is a supply voltage in volts.
type Volt float64

// OPP is one operating performance point: a frequency and the minimum
// voltage that sustains it (the DVFS principle of §2.2.1).
type OPP struct {
	Freq Hz
	Volt Volt
}

// OPPTable is the ordered list of operating points a core supports.
// Tables are immutable after construction.
type OPPTable struct {
	points []OPP
}

// ErrEmptyTable is returned when constructing a table with no points.
var ErrEmptyTable = errors.New("soc: OPP table must contain at least one point")

// NewOPPTable validates and constructs an OPP table. Points are sorted by
// frequency; duplicate frequencies, non-positive values, or voltages that
// decrease as frequency increases are rejected, since a governor driving
// such a table would make physically meaningless decisions.
func NewOPPTable(points []OPP) (*OPPTable, error) {
	if len(points) == 0 {
		return nil, ErrEmptyTable
	}
	sorted := make([]OPP, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Freq < sorted[j].Freq })
	for i, p := range sorted {
		if p.Freq == 0 {
			return nil, fmt.Errorf("soc: OPP %d has zero frequency", i)
		}
		if p.Volt <= 0 {
			return nil, fmt.Errorf("soc: OPP %d (%v) has non-positive voltage %v", i, p.Freq, p.Volt)
		}
		if i > 0 {
			if p.Freq == sorted[i-1].Freq {
				return nil, fmt.Errorf("soc: duplicate OPP frequency %v", p.Freq)
			}
			if p.Volt < sorted[i-1].Volt {
				return nil, fmt.Errorf("soc: voltage not monotone: %v@%v after %v@%v",
					p.Volt, p.Freq, sorted[i-1].Volt, sorted[i-1].Freq)
			}
		}
	}
	return &OPPTable{points: sorted}, nil
}

// MustOPPTable is NewOPPTable for static, known-good tables; it panics on
// error and is intended for package-level platform definitions only.
func MustOPPTable(points []OPP) *OPPTable {
	t, err := NewOPPTable(points)
	if err != nil {
		panic(err)
	}
	return t
}

// Len reports the number of operating points.
func (t *OPPTable) Len() int { return len(t.points) }

// Min returns the lowest-frequency operating point.
func (t *OPPTable) Min() OPP { return t.points[0] }

// Max returns the highest-frequency operating point.
func (t *OPPTable) Max() OPP { return t.points[len(t.points)-1] }

// At returns the i-th operating point in ascending frequency order.
func (t *OPPTable) At(i int) OPP { return t.points[i] }

// Points returns a copy of the operating points in ascending order.
func (t *OPPTable) Points() []OPP {
	out := make([]OPP, len(t.points))
	copy(out, t.points)
	return out
}

// Frequencies returns every supported frequency in ascending order.
func (t *OPPTable) Frequencies() []Hz {
	out := make([]Hz, len(t.points))
	for i, p := range t.points {
		out[i] = p.Freq
	}
	return out
}

// IndexOf returns the position of freq in the table, or -1 if the exact
// frequency is not a supported operating point.
//
//mobicore:hotpath
func (t *OPPTable) IndexOf(freq Hz) int {
	if i := t.ceilIndex(freq); i < len(t.points) && t.points[i].Freq == freq {
		return i
	}
	return -1
}

// ceilIndex returns the position of the lowest operating point >= freq, or
// Len() when freq lies above the top — sort.Search written out, so the
// per-tick lookups pay no closure call per probe.
//
//mobicore:hotpath
func (t *OPPTable) ceilIndex(freq Hz) int {
	lo, hi := 0, len(t.points)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.points[m].Freq < freq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Contains reports whether freq is a supported operating point.
func (t *OPPTable) Contains(freq Hz) bool { return t.IndexOf(freq) >= 0 }

// VoltageFor returns the supply voltage of the given operating frequency.
// The frequency must be a table entry; use CeilFreq/FloorFreq first when
// mapping a computed target onto the table.
func (t *OPPTable) VoltageFor(freq Hz) (Volt, error) {
	if i := t.IndexOf(freq); i >= 0 {
		return t.points[i].Volt, nil
	}
	return 0, fmt.Errorf("soc: %v is not an operating point", freq)
}

// CeilFreq maps a desired frequency to the lowest supported operating point
// that is >= target. Targets above the maximum clamp to the maximum. This is
// how cpufreq resolves CPUFREQ_RELATION_L.
//
//mobicore:hotpath
func (t *OPPTable) CeilFreq(target Hz) OPP {
	i := t.ceilIndex(target)
	if i == len(t.points) {
		return t.Max()
	}
	return t.points[i]
}

// FloorFreq maps a desired frequency to the highest supported operating
// point that is <= target. Targets below the minimum clamp to the minimum.
// This is how cpufreq resolves CPUFREQ_RELATION_H.
func (t *OPPTable) FloorFreq(target Hz) OPP {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].Freq > target })
	if i == 0 {
		return t.Min()
	}
	return t.points[i-1]
}

// StepUp returns the operating point n steps above freq, clamped to the
// table's maximum. freq is first resolved with CeilFreq.
func (t *OPPTable) StepUp(freq Hz, n int) OPP {
	i := t.indexOfResolved(freq)
	i += n
	if i >= len(t.points) {
		i = len(t.points) - 1
	}
	if i < 0 {
		i = 0
	}
	return t.points[i]
}

// StepDown returns the operating point n steps below freq, clamped to the
// table's minimum.
func (t *OPPTable) StepDown(freq Hz, n int) OPP {
	return t.StepUp(freq, -n)
}

func (t *OPPTable) indexOfResolved(freq Hz) int {
	i := t.ceilIndex(freq)
	if i == len(t.points) {
		return len(t.points) - 1
	}
	return i
}
