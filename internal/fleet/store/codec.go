package store

import (
	"encoding/json"
	"math"
	"strconv"
)

// The cells file's line codec. Every line is byte-for-byte encoding/json's
// encoding of a Record: fields in struct order, until_done only when true,
// floats in encoding/json's format. appendRecord writes that canonical
// form by appending and DecodeRecord parses it back, neither by
// reflection. A record or line outside the canonical form — a string json
// would escape, a NaN or infinite float, a line laid out by another
// encoder — goes through encoding/json instead, so both directions accept,
// reject and return exactly what encoding/json does.

// AppendJSONFloat appends finite x as encoding/json encodes a float64:
// the shortest representation that round-trips, in 'f' format unless |x|
// is below 1e-6 or at least 1e21, where it switches to 'e' with the
// exponent's leading zero dropped (1e-07 becomes 1e-7).
func AppendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendRecord appends exactly the bytes json.Marshal(rec) returns, with
// no newline. A record the canonical encoder cannot write goes to
// json.Marshal, whose error it returns with b unchanged.
func appendRecord(b []byte, rec Record) ([]byte, error) {
	if out, ok := appendCanonical(b, &rec); ok {
		return out, nil
	}
	j, err := json.Marshal(rec)
	if err != nil {
		return b, err
	}
	return append(b, j...), nil
}

// appendCanonical appends rec in canonical form. It reports false, with b
// unchanged, when a string holds a byte json escapes or a float is NaN or
// infinite.
func appendCanonical(b []byte, rec *Record) ([]byte, bool) {
	e := lineEncoder{b: b, ok: true}
	e.str(`{"key":`, rec.Key)
	e.str(`,"platform":`, rec.Platform)
	e.str(`,"policy":`, rec.Policy)
	e.str(`,"workload":`, rec.Workload)
	e.str(`,"placer":`, rec.Placer)
	e.int(`,"seed":`, rec.Seed)
	e.int(`,"duration_ns":`, rec.DurationNS)
	if rec.UntilDone {
		e.b = append(e.b, `,"until_done":true`...)
	}
	e.int(`,"tick_ns":`, rec.TickNS)
	e.int(`,"sample_ns":`, rec.SampleNS)
	e.bool(`,"finished":`, rec.Finished)
	e.int(`,"elapsed_ns":`, rec.ElapsedNS)
	e.bool(`,"has_frames":`, rec.HasFrames)
	e.float(`,"avg_fps":`, rec.AvgFPS)
	e.float(`,"drop_rate":`, rec.DropRate)
	e.float(`,"avg_power_w":`, rec.AvgPowerW)
	e.float(`,"peak_power_w":`, rec.PeakPowerW)
	e.float(`,"energy_j":`, rec.EnergyJ)
	e.float(`,"avg_freq_hz":`, rec.AvgFreqHz)
	e.float(`,"avg_online_cores":`, rec.AvgOnlineCores)
	e.float(`,"avg_util":`, rec.AvgUtil)
	e.float(`,"avg_quota":`, rec.AvgQuota)
	e.float(`,"avg_temp_c":`, rec.AvgTempC)
	e.float(`,"max_temp_c":`, rec.MaxTempC)
	e.float(`,"executed_cycles":`, rec.ExecutedCycles)
	e.float(`,"quota_throttled_sec":`, rec.QuotaThrottledSec)
	e.float(`,"thermal_capped_sec":`, rec.ThermalCappedSec)
	if !e.ok {
		return b, false
	}
	return append(e.b, '}'), true
}

// lineEncoder appends `prefix value` pairs; ok turns false at the first
// value the canonical form cannot hold.
type lineEncoder struct {
	b  []byte
	ok bool
}

// plain reports whether json.Marshal writes c verbatim inside a string
// and json.Unmarshal reads it back as itself. That is printable ASCII
// other than '"', '\\' and the HTML-sensitive '<', '>' and '&', which
// Marshal escapes. Control bytes are escaped too, and DEL and non-ASCII
// bytes are left out so no UTF-8 handling is needed.
func plain(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func (e *lineEncoder) str(prefix, s string) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			e.ok = false
			return
		}
	}
	e.b = append(e.b, prefix...)
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *lineEncoder) int(prefix string, n int64) {
	e.b = strconv.AppendInt(append(e.b, prefix...), n, 10)
}

func (e *lineEncoder) bool(prefix string, v bool) {
	e.b = strconv.AppendBool(append(e.b, prefix...), v)
}

func (e *lineEncoder) float(prefix string, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		e.ok = false
		return
	}
	e.b = AppendJSONFloat(append(e.b, prefix...), x)
}

// DecodeRecord parses one cells-file line. It returns exactly what
// json.Unmarshal into a zero Record returns: the record and the error.
// A line in the canonical form appendRecord writes is parsed directly;
// any other line — other key order, whitespace, escapes, unknown or
// case-variant keys, a number out of range — goes to json.Unmarshal.
func DecodeRecord(line []byte) (Record, error) {
	var rec Record
	if decodeCanonical(line, &rec) {
		return rec, nil
	}
	rec = Record{}
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// decodeCanonical parses line into rec if it is laid out in exactly the
// canonical form, with strings of plain bytes and numbers
// that are strict JSON tokens strconv parses without error. It reports
// false, leaving rec partly written, for any other line.
func decodeCanonical(line []byte, rec *Record) bool {
	d := lineDecoder{rest: line, ok: true}
	d.record(rec)
	return d.ok && len(d.rest) == 0
}

// scanCanonical reports whether decodeCanonical would accept line, and
// returns the line's key bytes (a subslice of line) if so. It walks the
// same grammar without converting a value: no string is copied, and a
// number token is handed to strconv only when it might overflow.
func scanCanonical(line []byte) (key []byte, ok bool) {
	d := lineDecoder{rest: line, ok: true, scan: true}
	var rec Record
	key = d.record(&rec)
	return key, d.ok && len(d.rest) == 0
}

// record reads one canonical line into rec and returns the key's bytes.
// In scan mode rec is scratch: its strings stay empty, and a number is
// converted only when it might overflow.
func (d *lineDecoder) record(rec *Record) (key []byte) {
	key = d.raw(`{"key":`)
	rec.Key = d.text(key)
	rec.Platform = d.str(`,"platform":`)
	rec.Policy = d.str(`,"policy":`)
	rec.Workload = d.str(`,"workload":`)
	rec.Placer = d.str(`,"placer":`)
	rec.Seed = d.int(`,"seed":`)
	rec.DurationNS = d.int(`,"duration_ns":`)
	rec.UntilDone = d.skip(`,"until_done":true`)
	rec.TickNS = d.int(`,"tick_ns":`)
	rec.SampleNS = d.int(`,"sample_ns":`)
	rec.Finished = d.bool(`,"finished":`)
	rec.ElapsedNS = d.int(`,"elapsed_ns":`)
	rec.HasFrames = d.bool(`,"has_frames":`)
	rec.AvgFPS = d.float(`,"avg_fps":`)
	rec.DropRate = d.float(`,"drop_rate":`)
	rec.AvgPowerW = d.float(`,"avg_power_w":`)
	rec.PeakPowerW = d.float(`,"peak_power_w":`)
	rec.EnergyJ = d.float(`,"energy_j":`)
	rec.AvgFreqHz = d.float(`,"avg_freq_hz":`)
	rec.AvgOnlineCores = d.float(`,"avg_online_cores":`)
	rec.AvgUtil = d.float(`,"avg_util":`)
	rec.AvgQuota = d.float(`,"avg_quota":`)
	rec.AvgTempC = d.float(`,"avg_temp_c":`)
	rec.MaxTempC = d.float(`,"max_temp_c":`)
	rec.ExecutedCycles = d.float(`,"executed_cycles":`)
	rec.QuotaThrottledSec = d.float(`,"quota_throttled_sec":`)
	rec.ThermalCappedSec = d.float(`,"thermal_capped_sec":`)
	d.expect(`}`)
	return key
}

// lineDecoder consumes `prefix value` pairs from rest; ok turns false at
// the first byte outside the canonical form, after which every read
// returns a zero value. With scan set it checks tokens without
// converting them where it can.
type lineDecoder struct {
	rest []byte
	ok   bool
	scan bool
}

// skip consumes lit if rest starts with it.
func (d *lineDecoder) skip(lit string) bool {
	if d.ok && len(d.rest) >= len(lit) && string(d.rest[:len(lit)]) == lit {
		d.rest = d.rest[len(lit):]
		return true
	}
	return false
}

func (d *lineDecoder) expect(lit string) {
	if !d.skip(lit) {
		d.ok = false
	}
}

// raw consumes prefix and a string of plain bytes, returning its bytes.
func (d *lineDecoder) raw(prefix string) []byte {
	d.expect(prefix)
	d.expect(`"`)
	if !d.ok {
		return nil
	}
	for i, c := range d.rest {
		if c == '"' {
			s := d.rest[:i]
			d.rest = d.rest[i+1:]
			return s
		}
		if !plain(c) {
			break
		}
	}
	d.ok = false
	return nil
}

// text converts a string's bytes, except in scan mode.
func (d *lineDecoder) text(b []byte) string {
	if d.scan {
		return ""
	}
	return string(b)
}

func (d *lineDecoder) str(prefix string) string {
	return d.text(d.raw(prefix))
}

func (d *lineDecoder) bool(prefix string) bool {
	d.expect(prefix)
	if d.skip("true") {
		return true
	}
	d.expect("false")
	return false
}

func (d *lineDecoder) int(prefix string) int64 {
	d.expect(prefix)
	n := intLen(d.rest)
	if !d.ok || n == 0 {
		d.ok = false
		return 0
	}
	tok := d.rest[:n]
	d.rest = d.rest[n:]
	if d.scan && n <= 18 {
		return 0 // at most 18 digits: inside int64's range
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.ok = false
		return 0
	}
	return v
}

func (d *lineDecoder) float(prefix string) float64 {
	d.expect(prefix)
	b := d.rest
	n := intLen(b)
	if !d.ok || n == 0 {
		d.ok = false
		return 0
	}
	whole := n // sign and integer digits
	if n < len(b) && b[n] == '.' {
		frac := digits(b[n+1:])
		if frac == 0 {
			d.ok = false
			return 0
		}
		n += 1 + frac
	}
	exp := 0 // the exponent's value; 1000 stands for any beyond 3 digits
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		sign := 1
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			if b[n] == '-' {
				sign = -1
			}
			n++
		}
		m := digits(b[n:])
		if m == 0 {
			d.ok = false
			return 0
		}
		for _, c := range b[n : n+m] {
			if exp = exp*10 + int(c-'0'); exp >= 1000 {
				exp = 1000
				break
			}
		}
		exp *= sign
		n += m
	}
	tok := b[:n]
	d.rest = b[n:]
	// Below 10^300 the token is far from float64's overflow at about
	// 1.8e308, and an underflow to zero is no error. Its magnitude is
	// below 10^(whole+exp) unless the exponent was cut off at 1000.
	if d.scan && whole+exp <= 300 && exp > -1000 {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.ok = false
		return 0
	}
	return v
}

// intLen returns the length of the JSON integer token -?(0|[1-9][0-9]*)
// b starts with, or 0 if there is none.
func intLen(b []byte) int {
	n := 0
	if n < len(b) && b[n] == '-' {
		n++
	}
	if n < len(b) && b[n] == '0' {
		return n + 1
	}
	if m := digits(b[n:]); m > 0 {
		return n + m
	}
	return 0
}

// digits returns the length of the run of ASCII digits b starts with.
func digits(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}
