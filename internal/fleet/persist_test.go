package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// readStoreFiles returns the cells.jsonl bytes and the CSV of the
// store-backed report over the whole store.
func readStoreFiles(t *testing.T, dir string) (jsonl, csv []byte) {
	t.Helper()
	jsonl, err := os.ReadFile(filepath.Join(dir, store.CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	res, err := LoadStoreResult(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return jsonl, buf.Bytes()
}

// TestStoreDeterministicAcrossParallelism: the persisted JSONL and CSV are
// byte-identical whether the fleet ran serial or fanned out — the store
// sorts by identity key, so scheduling can never show through. (CI runs
// this under -race, which also guards the worker-pool handoff.)
func TestStoreDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) (jsonl, storeCSV, runCSV []byte) {
		t.Helper()
		dir := t.TempDir()
		spec := matrixSpec(par)
		spec.StoreDir = dir
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		jsonl, storeCSV = readStoreFiles(t, dir)
		return jsonl, storeCSV, buf.Bytes()
	}
	j1, s1, r1 := run(1)
	j8, s8, r8 := run(8)
	if !bytes.Equal(j1, j8) {
		t.Error("cells.jsonl differs between parallel 1 and 8")
	}
	if !bytes.Equal(s1, s8) {
		t.Error("store CSV differs between parallel 1 and 8")
	}
	if !bytes.Equal(r1, r8) {
		t.Error("result CSV differs between parallel 1 and 8")
	}
}

// TestResumeMatchesColdRun: filling a store from a partial run plus a
// resumed completion produces byte-identical JSONL and CSV to a cold full
// run, the resumed run executes zero sessions when everything is cached,
// and its text report equals the cold one's.
func TestResumeMatchesColdRun(t *testing.T) {
	coldDir := t.TempDir()
	coldSpec := matrixSpec(4)
	coldSpec.StoreDir = coldDir
	coldRes, err := Run(context.Background(), coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	coldJSONL, coldCSV := readStoreFiles(t, coldDir)
	var coldText, coldRunCSV bytes.Buffer
	if err := coldRes.WriteText(&coldText); err != nil {
		t.Fatal(err)
	}
	if err := coldRes.WriteCSV(&coldRunCSV); err != nil {
		t.Fatal(err)
	}

	// Partial pass: only two of the three seeds.
	warmDir := t.TempDir()
	partial := matrixSpec(4)
	partial.Seeds = []int64{1, 3}
	partial.StoreDir = warmDir
	if _, err := Run(context.Background(), partial); err != nil {
		t.Fatal(err)
	}

	// Resumed full pass: executes only the missing seed-2 cells.
	resumed := matrixSpec(4)
	resumed.StoreDir = warmDir
	resumed.Resume = true
	res, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != 8 {
		t.Errorf("resumed run cached %d cells, want 8 (2 platforms × 2 policies × 2 stored seeds)", res.Cached)
	}
	warmJSONL, warmCSV := readStoreFiles(t, warmDir)
	if !bytes.Equal(coldJSONL, warmJSONL) {
		t.Error("resumed store differs from cold store")
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Error("resumed store CSV differs from cold store CSV")
	}
	var warmRunCSV bytes.Buffer
	if err := res.WriteCSV(&warmRunCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldRunCSV.Bytes(), warmRunCSV.Bytes()) {
		t.Error("resumed per-run CSV differs from cold per-run CSV")
	}

	// Fully-warm pass: zero executions, identical text (modulo the cached
	// banner) and CSV.
	full := matrixSpec(4)
	full.StoreDir = warmDir
	full.Resume = true
	res, err = Run(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != res.Total || res.Cached != 12 {
		t.Errorf("fully-warm run cached %d of %d, want all 12", res.Cached, res.Total)
	}
	for _, c := range res.Cells {
		if !c.Cached {
			t.Fatalf("cell %d executed on a fully-warm resume", c.Index)
		}
	}
	var warmText bytes.Buffer
	if err := res.WriteText(&warmText); err != nil {
		t.Fatal(err)
	}
	wantBanner := "fleet: 12 of 12 cells (12 cached)\n"
	if !bytes.HasPrefix(warmText.Bytes(), []byte(wantBanner)) {
		t.Errorf("warm banner missing: %q", warmText.String()[:40])
	}
	coldBody := bytes.TrimPrefix(coldText.Bytes(), []byte("fleet: 12 of 12 cells\n"))
	warmBody := bytes.TrimPrefix(warmText.Bytes(), []byte(wantBanner))
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm text body differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldBody, warmBody)
	}
}

func TestResumeRequiresStore(t *testing.T) {
	spec := matrixSpec(1)
	spec.Resume = true
	if _, err := Run(context.Background(), spec); err == nil {
		t.Error("Resume without StoreDir accepted")
	}
}

// TestTraceExport: every executed cell exports a gzip JSONL trace whose
// per-tick energy integral reproduces the cell's reported joules, and
// cached cells are not re-traced.
func TestTraceExport(t *testing.T) {
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "traces")
	spec := Spec{
		Platforms: []platform.Platform{platform.Nexus6P()},
		Policies:  []PolicyFactory{Policy("android-default")},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:     []int64{1, 2},
		Duration:  time.Second,
		StoreDir:  filepath.Join(dir, "store"),
		TraceDir:  traceDir,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	clusters := len(platform.Nexus6P().ClusterSpecs())
	for _, c := range res.Cells {
		path := filepath.Join(traceDir, TraceFileName(c.Key))
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("cell %d: %v", c.Index, err)
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		var (
			ticks  int
			joules float64
		)
		sc := bufio.NewScanner(gz)
		for sc.Scan() {
			var s TraceSample
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("cell %d tick %d: %v", c.Index, ticks, err)
			}
			if len(s.ClusterW) != clusters {
				t.Fatalf("cell %d: %d cluster entries, want %d", c.Index, len(s.ClusterW), clusters)
			}
			joules += s.SystemW * s.DtSec
			ticks++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		gz.Close()
		f.Close()
		if ticks != 1000 {
			t.Errorf("cell %d: %d trace ticks, want 1000", c.Index, ticks)
		}
		if math.Abs(joules-c.Report.EnergyJ) > 1e-9*(1+c.Report.EnergyJ) {
			t.Errorf("cell %d: trace integral %.9f J != report %.9f J", c.Index, joules, c.Report.EnergyJ)
		}
	}

	// A resumed run answers from the store and must not rewrite traces.
	for _, c := range res.Cells {
		if err := os.Remove(filepath.Join(traceDir, TraceFileName(c.Key))); err != nil {
			t.Fatal(err)
		}
	}
	spec.Resume = true
	res, err = Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != 2 {
		t.Fatalf("resume cached %d cells, want 2", res.Cached)
	}
	left, err := filepath.Glob(filepath.Join(traceDir, "*.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("cached cells re-traced: %v", left)
	}
}

// TestResultCSVGolden locks the CSV export byte for byte — the contract
// `mobifleet -csv` prints. Regenerate with -update-golden after an
// intentional schema or physics change.
func TestResultCSVGolden(t *testing.T) {
	spec := Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.Nexus6P()},
		Policies:  []PolicyFactory{Policy("android-default"), Policy("mobicore")},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:     []int64{1, 2},
		Duration:  time.Second,
		Parallel:  4,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "csv_golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("CSV drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestCIShrinksWithSeeds is the seed-count bump test: growing a cell
// group from 10 to 100 seeds must shrink the energy CI half-width — the
// 1/√n contraction that makes 100-seed sweeps worth their compute. The
// run is deterministic, so the tolerance guards modelling drift rather
// than randomness: at 10× the seeds the expected contraction is ~0.32,
// and the assertion allows anything below 0.8.
func TestCIShrinksWithSeeds(t *testing.T) {
	run := func(n int) Stat {
		t.Helper()
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		spec := Spec{
			Platforms: []platform.Platform{platform.Nexus5()},
			Policies:  []PolicyFactory{Policy("android-default")},
			Workloads: []WorkloadFactory{gameFactory(t)},
			Seeds:     seeds,
			Duration:  500 * time.Millisecond,
		}
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Aggregates[0].EnergyJ
	}
	ten := run(10)
	hundred := run(100)
	hwTen := (ten.CI95Hi - ten.CI95Lo) / 2
	hwHundred := (hundred.CI95Hi - hundred.CI95Lo) / 2
	if hwTen <= 0 {
		t.Fatalf("10-seed CI half-width %.6g not positive — did the workload lose its seed sensitivity?", hwTen)
	}
	if hwHundred <= 0 {
		t.Fatalf("100-seed CI half-width %.6g not positive", hwHundred)
	}
	if ratio := hwHundred / hwTen; ratio > 0.8 {
		t.Errorf("CI half-width shrank only %.2f× (10 seeds ±%.4g, 100 seeds ±%.4g); expected ~0.32",
			ratio, hwTen, hwHundred)
	}
}
