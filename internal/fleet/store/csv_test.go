package store

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
	"time"
)

// csvRowReference renders rec's CSV fields as strings, the way the row
// was built before AppendCSV; encoding/csv's Writer over these fields is
// the byte contract AppendCSV must meet.
func csvRowReference(r Record) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		r.Key, r.Platform, r.Policy, r.Workload, r.Placer,
		strconv.FormatInt(r.Seed, 10),
		f(time.Duration(r.DurationNS).Seconds()),
		f(time.Duration(r.ElapsedNS).Seconds()),
		strconv.FormatBool(r.UntilDone),
		f(time.Duration(r.TickNS).Seconds()),
		f(time.Duration(r.SampleNS).Seconds()),
		strconv.FormatBool(r.Finished),
		strconv.FormatBool(r.HasFrames),
		f(r.AvgFPS), f(r.DropRate),
		f(r.AvgPowerW), f(r.PeakPowerW), f(r.EnergyJ),
		f(r.AvgFreqHz), f(r.AvgOnlineCores), f(r.AvgUtil), f(r.AvgQuota),
		f(r.AvgTempC), f(r.MaxTempC), f(r.ExecutedCycles),
		f(r.QuotaThrottledSec), f(r.ThermalCappedSec),
	}
}

// checkCSVRow requires rec.AppendCSV to append exactly what encoding/csv
// writes for the reference fields, after whatever b already held.
func checkCSVRow(t *testing.T, name string, rec Record) {
	t.Helper()
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	if err := cw.Write(csvRowReference(rec)); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	prefix := []byte("prefix,")
	got := rec.AppendCSV(append([]byte(nil), prefix...))
	if !bytes.Equal(got, append(prefix, want.Bytes()...)) {
		t.Fatalf("%s: AppendCSV\n got %q\nwant %q", name, got[len(prefix):], want.Bytes())
	}
}

// csvQuotingNames are field values on each side of encoding/csv's quoting
// rule.
var csvQuotingNames = []string{
	"", "plain", `\.`, `\.x`, `x\.`, "a,b", `say "hi"`, `"`, `""`, "cr\rlf\n",
	"crlf\r\nin", "\n", " lead", "trail ", "\tlead", "\u00a0nbsp", "\u2028ls",
	"\u0085nel", "x\u00a0", "\xffbad", "\xc2", "Ångry Bïrds — niveau 3",
}

// TestAppendCSVQuoting runs every quoting case through every string column.
func TestAppendCSVQuoting(t *testing.T) {
	for _, s := range csvQuotingNames {
		for i := range stringSlots(&Record{}) {
			rec := fullRecord()
			*stringSlots(&rec)[i] = s
			checkCSVRow(t, strconv.Quote(s), rec)
		}
	}
}

// FuzzCSVRow compares AppendCSV with encoding/csv over the reference
// fields for arbitrary records: any strings, any integers, any float bit
// patterns (NaN, ±Inf, −0 and subnormals included).
func FuzzCSVRow(f *testing.F) {
	for _, rec := range codecSeedRecords() {
		f.Add(recordBits(rec))
	}
	for _, s := range csvQuotingNames {
		rec := fullRecord()
		rec.Workload = s
		f.Add(recordBits(rec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCSVRow(t, "fuzz record", recordFromBits(data))
	})
}
