package fleet

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"mobicore/internal/fleet/store"
	"mobicore/internal/sim"
)

// placerName renders a cell's placement rule, naming the engine default.
func placerName(p string) string {
	if p == "" {
		return sim.PlacerGreedy
	}
	return p
}

// WriteText renders the fleet result as aligned human-readable text: one
// row per cell in spec order, then the cross-seed aggregates (mean ±
// stddev, extremes, quantiles, and the mean's 95% CI), then the paired
// matched-seed deltas. Because cells are index-ordered, the rendering is
// byte-identical whatever parallelism produced the result.
func (r *Result) WriteText(w io.Writer) error {
	cached := ""
	if r.Cached > 0 {
		cached = fmt.Sprintf(" (%d cached)", r.Cached)
	}
	shardNote := ""
	if r.Shard != nil {
		shardNote = fmt.Sprintf(" [shard %d/%d]", r.Shard.Index, r.Shard.Count)
	}
	if _, err := fmt.Fprintf(w, "fleet: %d of %d cells%s%s\n", len(r.Cells), r.Total, cached, shardNote); err != nil {
		return err
	}
	if len(r.Cells) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-16s %-18s %-16s %-8s %5s %10s %10s %8s %8s %10s\n",
		"platform", "policy", "workload", "placer", "seed",
		"energy J", "avg mW", "fps", "drop%", "throttle s"); err != nil {
		return err
	}
	if err := r.writeRows(w, appendCellRow); err != nil {
		return err
	}
	for _, a := range r.Aggregates {
		if _, err := fmt.Fprintf(w, "%s / %s / %s / %s (%d seeds)\n",
			a.Platform, a.Policy, a.Workload, placerName(a.Placer), a.Seeds); err != nil {
			return err
		}
		if err := writeStat(w, "energy J", a.EnergyJ); err != nil {
			return err
		}
		if a.HasFrames {
			if err := writeStat(w, "fps", a.AvgFPS); err != nil {
				return err
			}
			if err := writeStat(w, "drop rate", a.DropRate); err != nil {
				return err
			}
		}
		if err := writeStat(w, "throttle s", a.ThrottleSec); err != nil {
			return err
		}
	}
	return r.writeComparisons(w)
}

// writeComparisons renders the paired matched-seed deltas, when any pair
// shares enough seeds to bound.
func (r *Result) writeComparisons(w io.Writer) error {
	if len(r.Comparisons) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "paired deltas (B-A on matched seeds, 95% CI):"); err != nil {
		return err
	}
	for _, c := range r.Comparisons {
		context := c.Placer
		if c.Dimension == "placer" {
			context = c.Policy
		}
		if _, err := fmt.Fprintf(w, "  %s / %s / %s: %s - %s (%d seeds): energy %+.4g J ci95 [%+.4g, %+.4g] (%+.1f%%)",
			c.Platform, c.Workload, context, c.B, c.A, c.Seeds,
			c.EnergyJ.MeanDelta, c.EnergyJ.CI95Lo, c.EnergyJ.CI95Hi, c.EnergyJ.Rel*100); err != nil {
			return err
		}
		if c.HasFrames {
			if _, err := fmt.Fprintf(w, "; fps %+.3g ci95 [%+.3g, %+.3g]",
				c.AvgFPS.MeanDelta, c.AvgFPS.CI95Lo, c.AvgFPS.CI95Hi); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func writeStat(w io.Writer, label string, s Stat) error {
	_, err := fmt.Fprintf(w, "  %-11s mean %.4g ± %.3g  ci95 [%.4g, %.4g]  [%.4g, %.4g]  p50 %.4g  p95 %.4g\n",
		label+":", s.Mean, s.StdDev, s.CI95Lo, s.CI95Hi, s.Min, s.Max, s.P50, s.P95)
	return err
}

// WriteCSV exports every completed cell as one CSV row in spec order,
// using the result store's column set — so a per-run CSV and a store-wide
// export join on identical columns. Rows are byte-stable: a resumed run
// that answered cells from the store emits exactly the bytes the cold run
// did.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(store.CSVHeader()); err != nil {
		return fmt.Errorf("fleet: writing csv header: %w", err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("fleet: flushing csv header: %w", err)
	}
	err := r.writeRows(w, func(b []byte, c *CellResult) []byte { return c.rec.AppendCSV(b) })
	if err != nil {
		return fmt.Errorf("fleet: writing csv rows: %w", err)
	}
	return nil
}

// rowBatch is how many bytes of appended rows writeRows hands to the
// writer at once.
const rowBatch = 64 << 10

// writeRows appends one row per cell into a buffer and writes it to w in
// batches of about rowBatch bytes.
func (r *Result) writeRows(w io.Writer, row func([]byte, *CellResult) []byte) error {
	buf := make([]byte, 0, rowBatch+rowBatch/4)
	for i := range r.Cells {
		buf = row(buf, &r.Cells[i])
		if len(buf) >= rowBatch || i == len(r.Cells)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// appendCellRow appends c's row of the text report, the bytes
//
//	fmt.Sprintf("%-16s %-18s %-16s %-8s %5d %10.2f %10.1f %8s %8s %10.2f\n", ...)
//
// writes, with fps and drop% as "-" or a %.1f figure: names pad to their
// width in runes, as fmt's %-Ns does, and strconv's 'f' format is the one
// fmt's %W.Pf pads, NaN, ±Inf and −0 included.
func appendCellRow(b []byte, c *CellResult) []byte {
	b = appendLeft(b, c.Platform, 16)
	b = appendLeft(b, c.Policy, 18)
	b = appendLeft(b, c.Workload, 16)
	b = appendLeft(b, placerName(c.Placer), 8)
	var num [32]byte
	b = appendRight(b, strconv.AppendInt(num[:0], c.Seed, 10), 5)
	b = appendFixed(b, c.Report.EnergyJ, 10, 2)
	b = appendFixed(b, c.Report.AvgPowerW*1000, 10, 1)
	if c.HasFrames {
		b = appendFixed(b, c.AvgFPS, 8, 1)
		b = appendFixed(b, c.DropRate*100, 8, 1)
	} else {
		b = append(b, "        -        -"...) // " %8s" of "-", twice
	}
	b = appendFixed(b, c.Report.ThermalCappedSec, 10, 2)
	return append(b, '\n')
}

// appendLeft appends s padded with spaces to width runes, then the
// column separator.
func appendLeft(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, ' ')
}

// appendRight appends the ASCII text s right-aligned in width columns.
func appendRight(b, s []byte, width int) []byte {
	for n := len(s); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// appendFixed appends the column separator and v in 'f' format with prec
// decimals, right-aligned in width columns.
func appendFixed(b []byte, v float64, width, prec int) []byte {
	var num [32]byte
	return appendRight(append(b, ' '), appendFloatF(num[:0], v, prec), width)
}

// appendFloatF appends exactly strconv.AppendFloat(b, v, 'f', prec, 64).
// strconv formats 'f' with a precision through its slow multiprecision
// path, but 'e' with up to 18 digits through its exact fixed-digit one;
// both round v's exact binary value half to even. So when v needs 1–17
// significant digits down to 10^-prec, the digits come from 'e' and are
// laid out as 'f'. Zero, subnormals, NaN, ±Inf and the rest go to 'f'.
func appendFloatF(b []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if !(a >= 0x1p-1022 && a <= math.MaxFloat64) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	// x guesses v's decimal exponent (10^x ≤ |v| < 10^(x+1)) from its
	// binary one; it may be off by one, which the exponent 'e' prints
	// shows.
	_, e2 := math.Frexp(a)
	x := int(math.Floor(float64(e2-1) * math.Log10E / math.Log2E))
	if a >= math.Pow10(x+1) {
		x++
	}
	for range 2 {
		nd := x + 1 + prec // significant digits down to 10^-prec
		if nd < 1 || nd > 17 {
			break
		}
		var buf [32]byte
		digits, exp := splitE(strconv.AppendFloat(buf[:0], a, 'e', nd-1, 64))
		switch {
		case exp == x:
			// The exponent held: the digits are v rounded at 10^-prec. (If
			// x was one too high, 'e' rounded one place finer and carried
			// up to 10^x, which rounding at 10^-prec gives as well.)
			return layoutF(b, v < 0, digits, exp)
		case exp == x-1:
			x--
		case exp == x+1 && !isPowerOfTen(digits):
			x++
		default:
			// A carry to 10^(x+1), or x one too low with digits that read
			// like one: the two need different roundings.
			return strconv.AppendFloat(b, v, 'f', prec, 64)
		}
	}
	return strconv.AppendFloat(b, v, 'f', prec, 64)
}

// splitE splits strconv's 'e' format d[.ddd]e±XX into its digits, in
// place, and its exponent.
func splitE(s []byte) (digits []byte, exp int) {
	e := len(s) - 4
	for s[e] != 'e' {
		e--
	}
	digits = append(s[:1], s[min(2, e):e]...)
	for _, c := range s[e+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[e+1] == '-' {
		exp = -exp
	}
	return digits, exp
}

func isPowerOfTen(digits []byte) bool {
	for _, c := range digits[1:] {
		if c != '0' {
			return false
		}
	}
	return digits[0] == '1'
}

// layoutF appends the decimal digits·10^(exp-len(digits)+1) in 'f' form,
// with a minus sign when neg.
func layoutF(b []byte, neg bool, digits []byte, exp int) []byte {
	if neg {
		b = append(b, '-')
	}
	if exp < 0 {
		b = append(b, "0."...)
		for range -exp - 1 {
			b = append(b, '0')
		}
		return append(b, digits...)
	}
	b = append(b, digits[:exp+1]...)
	if exp+1 < len(digits) {
		b = append(b, '.')
		b = append(b, digits[exp+1:]...)
	}
	return b
}
