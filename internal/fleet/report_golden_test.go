package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/sim"
)

// TestReportGolden locks the text, CSV and JSON renderings of three
// results byte for byte — what `mobifleet -report`, `-csv` and `-json`
// print: a store-backed report over the stacks golden store, a live run
// with frame cells, two placers and a non-ASCII workload name wider than
// its column, and hand-built records holding float extremes and names CSV
// must quote. Regenerate with -update-golden after an intentional change.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		result func(t *testing.T) *Result
	}{
		{"stacks-store", stacksStoreResult},
		{"live-game", liveGameResult},
		{"edge-records", edgeRecordsResult},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.result(t)
			var text, csv, js bytes.Buffer
			if err := res.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := res.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&js)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string][]byte{".txt": text.Bytes(), ".csv": csv.Bytes(), ".json": js.Bytes()} {
				requireGolden(t, filepath.Join("testdata", "report", tc.name+ext), got)
			}
		})
	}
}

// requireGolden compares got with the golden file at path, rewriting it
// first under -update-golden.
func requireGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// stacksStoreResult loads a store whose cells file is the stacks golden.
func stacksStoreResult(t *testing.T) *Result {
	lines, err := os.ReadFile(filepath.Join("testdata", "stacks_cells_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.CellsFile), lines, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := LoadStoreResult(dir)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// liveGameResult runs game cells under two policies and both placers on
// two seeds, with a workload name of multi-byte runes longer than the
// text report's 16-column workload field.
func liveGameResult(t *testing.T) *Result {
	game := gameFactory(t)
	game.Name = "Ångry Bïrds — niveau 3"
	res, err := Run(context.Background(), Spec{
		Platforms: []platform.Platform{platform.Nexus6P()},
		Policies:  []PolicyFactory{Policy("android-default"), Policy("mobicore")},
		Workloads: []WorkloadFactory{game},
		Placers:   []string{sim.PlacerGreedy, sim.PlacerEAS},
		Seeds:     []int64{1, 2},
		Duration:  500 * time.Millisecond,
		Parallel:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// edgeRecordsResult rebuilds a result from hand-built records holding −0,
// 1e21 and the smallest subnormal, and workload names CSV must quote: a
// comma, a double quote and a leading space in one, and the `\.` field.
func edgeRecordsResult(t *testing.T) *Result {
	negZero := math.Copysign(0, -1)
	rec := func(policy, workload string, seed int64, frames bool, v [3]float64) store.Record {
		id := store.Identity{
			Platform:   "Nexus 5",
			Policy:     policy,
			Workload:   workload,
			Placer:     sim.PlacerGreedy,
			Seed:       seed,
			DurationNS: int64(time.Second),
			TickNS:     int64(time.Millisecond),
			SampleNS:   int64(50 * time.Millisecond),
		}
		return store.Record{
			Key:               id.Key(),
			Identity:          id,
			Finished:          true,
			ElapsedNS:         id.DurationNS,
			HasFrames:         frames,
			AvgFPS:            v[0],
			DropRate:          v[2],
			AvgPowerW:         v[1],
			PeakPowerW:        v[2],
			EnergyJ:           v[0],
			AvgFreqHz:         v[1],
			AvgOnlineCores:    v[2],
			AvgUtil:           v[0],
			AvgQuota:          1,
			AvgTempC:          22.5,
			MaxTempC:          v[1],
			ExecutedCycles:    v[1],
			QuotaThrottledSec: v[2],
			ThermalCappedSec:  v[0],
		}
	}
	const quoted = ` busy, "q"`
	recs := []store.Record{
		rec("mobicore", quoted, 2, false, [3]float64{1.25, 3e21, 1e-7}),
		rec("android-default", quoted, 1, false, [3]float64{negZero, 1e21, 5e-324}),
		rec("android-default", quoted, 2, false, [3]float64{2.5, 2e21, 0.125}),
		rec("mobicore", quoted, 1, false, [3]float64{0.5, 1.5e21, 5e-324}),
		rec("mobicore", `\.`, 1, true, [3]float64{59.95, negZero, 0.005}),
		rec("mobicore", `\.`, 2, true, [3]float64{negZero, 123456.789, 5e-324}),
	}
	return FromRecords(recs)
}
