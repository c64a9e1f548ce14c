package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// floatSlots, intSlots, stringSlots and boolSlots address each field of a
// Record by kind, so tests can vary one slot at a time.
func floatSlots(r *Record) []*float64 {
	return []*float64{
		&r.AvgFPS, &r.DropRate, &r.AvgPowerW, &r.PeakPowerW, &r.EnergyJ,
		&r.AvgFreqHz, &r.AvgOnlineCores, &r.AvgUtil, &r.AvgQuota,
		&r.AvgTempC, &r.MaxTempC, &r.ExecutedCycles,
		&r.QuotaThrottledSec, &r.ThermalCappedSec,
	}
}

func intSlots(r *Record) []*int64 {
	return []*int64{&r.Seed, &r.DurationNS, &r.TickNS, &r.SampleNS, &r.ElapsedNS}
}

func stringSlots(r *Record) []*string {
	return []*string{&r.Key, &r.Platform, &r.Policy, &r.Workload, &r.Placer}
}

func boolSlots(r *Record) []*bool {
	return []*bool{&r.UntilDone, &r.Finished, &r.HasFrames}
}

// sameRecord compares records field by field, floats by bit pattern so
// -0 and +0 differ.
func sameRecord(a, b Record) bool {
	if a != b {
		return false
	}
	fa, fb := floatSlots(&a), floatSlots(&b)
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
	}
	return true
}

// fullRecord is a record with every field set, as a finished fleet cell
// writes it.
func fullRecord() Record {
	rec := testRecord(7)
	rec.ElapsedNS = rec.DurationNS - 12345
	rec.HasFrames = true
	for i, p := range floatSlots(&rec) {
		*p = 0.1*float64(i+1) + 1.0/3
	}
	return rec
}

// codecSeedRecords are the records the oracle tests run and the fuzz
// target starts from: each aims at one way the canonical encoder or
// decoder could drift from encoding/json.
func codecSeedRecords() map[string]Record {
	seeds := map[string]Record{
		"zero":   {},
		"test":   testRecord(1),
		"full":   fullRecord(),
		"keyed0": {Key: "k"},
	}
	values := map[string]float64{
		"neg-zero":         math.Copysign(0, -1),
		"subnormal-min":    math.SmallestNonzeroFloat64,
		"subnormal-neg":    -math.SmallestNonzeroFloat64,
		"normal-min":       2.2250738585072014e-308,
		"1e-6":             1e-6,
		"below-1e-6":       math.Nextafter(1e-6, 0),
		"neg-1e-6":         -1e-6,
		"1e-7":             1e-7,
		"1e21":             1e21,
		"below-1e21":       math.Nextafter(1e21, 0),
		"neg-1e21":         -1e21,
		"1e100":            1e100,
		"max":              math.MaxFloat64,
		"17-digits":        0.30000000000000004,
		"17-digits-large":  123456.78901234567,
		"17-digits-2^53+1": 9007199254740993,
		"nan":              math.NaN(),
		"inf":              math.Inf(1),
		"neg-inf":          math.Inf(-1),
	}
	for name, x := range values {
		for i := range floatSlots(&Record{}) {
			rec := fullRecord()
			*floatSlots(&rec)[i] = x
			seeds[fmt.Sprintf("%s/float%d", name, i)] = rec
		}
	}
	for _, until := range []bool{false, true} {
		rec := fullRecord()
		rec.UntilDone = until
		rec.Finished = !until
		seeds[fmt.Sprintf("until_done=%v", until)] = rec
	}
	for name, s := range map[string]string{
		"html":         "a<b>c&d",
		"quote":        `say "hi"`,
		"backslash":    `C:\dir`,
		"control":      "tab\there\x00nul\x1f",
		"newline":      "two\nlines",
		"del":          "del\x7f",
		"non-ascii":    "Nexus 6P — ünïcode",
		"line-sep":     "a\u2028b\u2029c",
		"invalid-utf8": "bad\xff\xfebytes",
		"empty":        "",
		"printable":    " !#$%'()*+,-./0123456789:;=?@AZ[]^_`az{|}~",
	} {
		for i := range stringSlots(&Record{}) {
			rec := fullRecord()
			*stringSlots(&rec)[i] = s
			seeds[fmt.Sprintf("%s/string%d", name, i)] = rec
		}
	}
	for _, n := range []int64{math.MinInt64, math.MaxInt64, -1, 0} {
		for i := range intSlots(&Record{}) {
			rec := fullRecord()
			*intSlots(&rec)[i] = n
			seeds[fmt.Sprintf("int%d=%d", i, n)] = rec
		}
	}
	return seeds
}

// canonicalLine is json.Marshal's line for fullRecord, and set returns it
// with one field's value replaced by raw bytes.
func canonicalLine(t testing.TB) (line string, set func(field, raw string) []byte) {
	canon, err := json.Marshal(fullRecord())
	if err != nil {
		t.Fatal(err)
	}
	line = string(canon)
	return line, func(field, raw string) []byte {
		re := regexp.MustCompile(`"` + field + `":("[^"]*"|[^,}]*)`)
		if !re.MatchString(line) {
			t.Fatalf("canonical line %s lacks field %q", line, field)
		}
		return []byte(re.ReplaceAllLiteralString(line, `"`+field+`":`+raw))
	}
}

// nonCanonicalLines are lines the canonical decoder must hand to
// json.Unmarshal: each is accepted, rejected or read differently by
// encoding/json than a naive parser of the canonical form would.
func nonCanonicalLines(t testing.TB) map[string][]byte {
	line, set := canonicalLine(t)
	rename := func(old, new string) []byte {
		if !strings.Contains(line, old) {
			t.Fatalf("canonical line %s lacks %q", line, old)
		}
		return []byte(strings.Replace(line, old, new, 1))
	}
	return map[string][]byte{
		"reordered":          rename(`"platform":"Nexus 5","policy":"mobicore"`, `"policy":"mobicore","platform":"Nexus 5"`),
		"spaces":             []byte(strings.ReplaceAll(line, `":`, `": `)),
		"leading-space":      []byte(" " + line),
		"trailing-space":     []byte(line + " \t"),
		"Seed-key":           rename(`"seed":`, `"Seed":`),
		"KEY-key":            rename(`"key":`, `"KEY":`),
		"unknown-key":        rename(`{`, `{"extra":[1,{"a":null}],`),
		"duplicate-key":      rename(`}`, `,"energy_j":2.5}`),
		"duplicate-string":   rename(`}`, `,"platform":"Nexus 6P"}`),
		"until-done-false":   rename(`,"tick_ns":`, `,"until_done":false,"tick_ns":`),
		"int-as-float":       set("seed", "7.0"),
		"int-exponent":       set("seed", "7e0"),
		"int-overflow":       set("seed", "9223372036854775808"),
		"int-underflow":      set("seed", "-9223372036854775809"),
		"int-leading-zero":   set("seed", "07"),
		"int-plus":           set("seed", "+7"),
		"int-string":         set("seed", `"7"`),
		"int-null":           set("seed", "null"),
		"int-bare-minus":     set("seed", "-"),
		"float-overflow":     set("avg_fps", "1e400"),
		"float-neg-overflow": set("avg_fps", "-1e400"),
		"float-leading-dot":  set("avg_fps", ".5"),
		"float-trailing-dot": set("avg_fps", "5."),
		"float-bare-exp":     set("avg_fps", "5e"),
		"float-signed-exp":   set("avg_fps", "5e+"),
		"float-leading-zero": set("avg_fps", "05"),
		"float-hex":          set("avg_fps", "0x10"),
		"float-underscore":   set("avg_fps", "1_0"),
		"float-inf":          set("avg_fps", "Infinity"),
		"float-nan":          set("avg_fps", "NaN"),
		"float-string":       set("avg_fps", `"1.5"`),
		"float-null":         set("avg_fps", "null"),
		"bool-as-int":        set("finished", "1"),
		"bool-null":          set("finished", "null"),
		"escaped-string":     set("platform", `"Nexus\u00205"`),
		"escaped-slash":      set("platform", `"Nexus\/5"`),
		"raw-control":        set("platform", "\"Nexus\t5\""),
		"raw-del":            set("platform", "\"Nexus\x7f5\""),
		"raw-non-ascii":      set("platform", `"Nexus ü"`),
		"raw-invalid-utf8":   set("platform", "\"Nexus \xff\""),
		"raw-html":           set("platform", `"<Nexus&5>"`),
		"trailing-garbage":   []byte(line + "x"),
		"trailing-object":    []byte(line + "{}"),
		"truncated":          []byte(line[:len(line)/2]),
		"unterminated":       []byte(line[:len(line)-1]),
		"empty":              {},
		"not-json":           []byte("not json"),
		"empty-object":       []byte("{}"),
		"key-only":           []byte(`{"key":"ab"}`),
		"array":              []byte(`[1,2]`),
		"null":               []byte(`null`),
	}
}

// numberTokenLines spell a number in ways json.Marshal never writes but
// the JSON grammar allows; the canonical decoder may parse them, as long
// as it reads what json.Unmarshal reads.
func numberTokenLines(t testing.TB) map[string][]byte {
	_, set := canonicalLine(t)
	return map[string][]byte{
		"int-neg-zero":      set("seed", "-0"),
		"float-upper-E":     set("avg_fps", "15E-1"),
		"float-plus-exp":    set("avg_fps", "1.5e+00"),
		"float-neg-zero":    set("avg_fps", "-0.0"),
		"float-long":        set("avg_fps", "0.1000000000000000055511151231257827021181583404541015625"),
		"float-underflow":   set("avg_fps", "1e-400"),
		"float-exp-zeros":   set("avg_fps", "1e0000000000000000000001"),
		"float-int-form":    set("avg_fps", "3"),
		"float-trailing-0s": set("avg_fps", "2.50000"),
		"int-19-digits":     set("seed", "1000000000000000000"),
		"int-max":           set("seed", "9223372036854775807"),
		"int-min":           set("seed", "-9223372036854775808"),
		"float-1e300":       set("avg_fps", "1e300"),
		"float-near-max":    set("avg_fps", "1.7976931348623157e308"),
		"float-max-digits":  set("avg_fps", "17976931348623157"+strings.Repeat("0", 292)),
		"float-max-over":    set("avg_fps", "1.797693134862316e308"),
		"float-big-int":     set("avg_fps", strings.Repeat("9", 400)),
		"float-big-int-exp": set("avg_fps", strings.Repeat("9", 400)+"e-300"),
		"float-exp-0s":      set("avg_fps", "1e0300"),
		"float-exp-0s-over": set("avg_fps", "1e0400"),
		"float-exp-neg-0s":  set("avg_fps", strings.Repeat("9", 900)+"e-0500"),
		"float-exp-neg-big": set("avg_fps", "1e-99999999999999999999"),
	}
}

// TestAppendRecordMatchesMarshal is the encoder oracle: for every seed
// record appendRecord appends json.Marshal's bytes, or fails with its
// error and leaves the buffer as it was.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	for name, rec := range codecSeedRecords() {
		checkEncode(t, name, rec)
	}
}

func checkEncode(t *testing.T, name string, rec Record) {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	prefix := []byte("prefix")
	got, err := appendRecord(prefix, rec)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: appendRecord error %v, json.Marshal error %v", name, err, wantErr)
		}
		if string(got) != "prefix" {
			t.Fatalf("%s: failed appendRecord changed the buffer to %q", name, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: appendRecord: %v (json.Marshal accepted the record)", name, err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s: appendRecord differs from json.Marshal:\n got %s\nwant prefix%s", name, got, want)
	}
}

// checkDecode requires DecodeRecord to return what json.Unmarshal into a
// zero Record returns: the same error text or none, and the same record.
func checkDecode(t *testing.T, name string, line []byte) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(line, &want)
	got, err := DecodeRecord(line)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: DecodeRecord error %v, json.Unmarshal error %v on %q", name, err, wantErr, line)
	}
	if !sameRecord(got, want) {
		t.Fatalf("%s: DecodeRecord differs from json.Unmarshal on %q:\n got %+v\nwant %+v", name, line, got, want)
	}
}

// TestDecodeRecordMatchesUnmarshal is the decoder oracle, on the lines
// json.Marshal writes for the seed records and on non-canonical lines.
func TestDecodeRecordMatchesUnmarshal(t *testing.T) {
	for name, rec := range codecSeedRecords() {
		line, err := json.Marshal(rec)
		if err != nil {
			continue // NaN or ±Inf: no line to decode
		}
		checkDecode(t, name, line)
	}
	for name, line := range nonCanonicalLines(t) {
		var rec Record
		if decodeCanonical(line, &rec) {
			t.Errorf("%s: canonical decoder accepted %q", name, line)
		}
		checkDecode(t, name, line)
	}
	for name, line := range numberTokenLines(t) {
		checkDecode(t, name, line)
	}
}

// checkCanonical requires a record the canonical encoder accepts to come
// back from the canonical decoder — not from the json.Unmarshal fallback —
// unchanged.
func checkCanonical(t *testing.T, name string, rec Record) (fast bool) {
	t.Helper()
	line, ok := appendCanonical(nil, &rec)
	if !ok {
		return false
	}
	var got Record
	if !decodeCanonical(line, &got) {
		t.Fatalf("%s: canonical decoder refused the canonical line %s", name, line)
	}
	if !sameRecord(got, rec) {
		t.Fatalf("%s: canonical round trip changed the record:\n got %+v\nwant %+v", name, got, rec)
	}
	return true
}

// TestCanonicalFastPath: the fast paths carry every line the store writes
// for ordinary records. Without this, a fast path that silently fell back
// to encoding/json would pass every oracle test and lose its speed.
func TestCanonicalFastPath(t *testing.T) {
	// Only the NaN, ±Inf and escapable-string seeds may fall back.
	slowKinds := []string{"nan/", "inf/", "neg-inf/", "html/", "quote/", "backslash/", "control/", "newline/", "del/", "non-ascii/", "line-sep/", "invalid-utf8/"}
	for name, rec := range codecSeedRecords() {
		slow := false
		for _, kind := range slowKinds {
			slow = slow || strings.HasPrefix(name, kind)
		}
		if fast := checkCanonical(t, name, rec); fast == slow {
			t.Errorf("%s: canonical encoder took the fast path: %v", name, fast)
		}
	}

	// Every line of a flushed store decodes on the fast path.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seed := int64(0); seed < 50; seed++ {
		rec := fullRecord()
		rec.Seed = seed
		rec.UntilDone = seed%3 == 0
		for i, p := range floatSlots(&rec) {
			*p = math.Pow(10, float64(int(seed)%40-20)) * float64(i+1) / 7
		}
		rec.Key = rec.Identity.Key()
		s.Put(rec)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		var rec Record
		if !decodeCanonical(sc.Bytes(), &rec) {
			t.Fatalf("line %d left the fast path: %s", n, sc.Bytes())
		}
		if want, _ := s.Get(rec.Key); !sameRecord(rec, want) {
			t.Fatalf("line %d decoded to %+v, want %+v", n, rec, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != s.Len() {
		t.Fatalf("read %d lines, want %d", n, s.Len())
	}

	// Reopened, the store indexes every line without decoding it, and
	// its sum file lets the next Flush copy them.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.recs) != 0 || len(re.lines) != n || !re.trusted {
		t.Errorf("reopened store: %d decoded, %d indexed of %d lines, trusted %v", len(re.recs), len(re.lines), n, re.trusted)
	}
}

// Fuzz record format: five strings, each a length byte (mod 32) and that
// many bytes; a flags byte for UntilDone, Finished and HasFrames; then
// the five int64 and fourteen float64 fields as 8 little-endian bytes
// each. Missing bytes read as zero.
func recordFromBits(data []byte) Record {
	var rec Record
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], take(8))
		return binary.LittleEndian.Uint64(w[:])
	}
	for _, p := range stringSlots(&rec) {
		var n int
		if l := take(1); len(l) == 1 {
			n = int(l[0] % 32)
		}
		*p = string(take(n))
	}
	var flags byte
	if l := take(1); len(l) == 1 {
		flags = l[0]
	}
	for i, p := range boolSlots(&rec) {
		*p = flags&(1<<i) != 0
	}
	for _, p := range intSlots(&rec) {
		*p = int64(word())
	}
	for _, p := range floatSlots(&rec) {
		*p = math.Float64frombits(word())
	}
	return rec
}

// recordBits encodes rec for the seed corpus; strings are cut to 31 bytes.
func recordBits(rec Record) []byte {
	var b []byte
	for _, p := range stringSlots(&rec) {
		s := *p
		if len(s) > 31 {
			s = s[:31]
		}
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	var flags byte
	for i, p := range boolSlots(&rec) {
		if *p {
			flags |= 1 << i
		}
	}
	b = append(b, flags)
	for _, p := range intSlots(&rec) {
		b = binary.LittleEndian.AppendUint64(b, uint64(*p))
	}
	for _, p := range floatSlots(&rec) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*p))
	}
	return b
}

// checkScan requires scanCanonical, Open's conversion-free check, to
// accept exactly the lines decodeCanonical accepts, with the same key.
func checkScan(t *testing.T, name string, line []byte) {
	t.Helper()
	key, ok := scanCanonical(line)
	var rec Record
	if want := decodeCanonical(line, &rec); ok != want || ok && string(key) != rec.Key {
		t.Fatalf("%s: scanCanonical = %q, %v; decodeCanonical = %v, key %q, on %q", name, key, ok, want, rec.Key, line)
	}
}

// FuzzRecordLine runs arbitrary bytes through DecodeRecord against
// json.Unmarshal and through scanCanonical against decodeCanonical, and a
// record built from the same bytes' bits through appendRecord against
// json.Marshal and back through the canonical decoder. DecodeRecord and
// scanCanonical are how Open reads the cells file, so this also fuzzes
// the store's load.
func FuzzRecordLine(f *testing.F) {
	for _, rec := range codecSeedRecords() {
		f.Add(recordBits(rec))
		if line, err := json.Marshal(rec); err == nil {
			f.Add(line)
		}
	}
	for _, lines := range []map[string][]byte{nonCanonicalLines(f), numberTokenLines(f)} {
		for _, line := range lines {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, "fuzz line", data)
		checkScan(t, "fuzz line", data)
		rec := recordFromBits(data)
		checkEncode(t, "fuzz record", rec)
		checkCanonical(t, "fuzz record", rec)
	})
}
