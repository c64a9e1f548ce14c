package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
)

// TestShardedRunsMatchSerial: running the matrix as disjoint key-range
// shards into separate stores and merging them produces a store
// byte-identical to the unsharded run — the foundation the distributed
// coordinator's determinism guarantee rests on.
func TestShardedRunsMatchSerial(t *testing.T) {
	whole := t.TempDir()
	spec := matrixSpec(2)
	spec.StoreDir = whole
	wholeRes, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if wholeRes.Shard != nil {
		t.Error("unsharded run reports a shard manifest")
	}
	wholeJSONL, wholeCSV := readStoreFiles(t, whole)

	const shards = 3
	dirs := make([]string, shards)
	cells := 0
	for i := range dirs {
		dirs[i] = t.TempDir()
		s := matrixSpec(2)
		s.StoreDir = dirs[i]
		s.ShardIndex, s.ShardCount = i, shards
		res, err := Run(context.Background(), s)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if res.Shard == nil || res.Shard.Index != i || res.Shard.Count != shards {
			t.Fatalf("shard %d: manifest %+v", i, res.Shard)
		}
		if len(res.Cells) != res.Shard.Cells {
			t.Errorf("shard %d ran %d cells, manifest says %d", i, len(res.Cells), res.Shard.Cells)
		}
		if res.Total != res.Shard.Cells {
			t.Errorf("shard %d Total = %d, want the shard's %d", i, res.Total, res.Shard.Cells)
		}
		var text bytes.Buffer
		if err := res.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), "[shard") {
			t.Errorf("shard %d report misses the shard banner: %q", i, text.String()[:40])
		}
		cells += len(res.Cells)
	}
	if cells != 12 {
		t.Fatalf("shards ran %d cells total, want 12", cells)
	}

	merged := t.TempDir()
	added, err := MergeStores(merged, dirs...)
	if err != nil {
		t.Fatal(err)
	}
	if added != 12 {
		t.Errorf("merge added %d records, want 12", added)
	}
	mergedJSONL, mergedCSV := readStoreFiles(t, merged)
	if !bytes.Equal(wholeJSONL, mergedJSONL) {
		t.Error("merged shard stores differ from the unsharded store")
	}
	if !bytes.Equal(wholeCSV, mergedCSV) {
		t.Error("merged shard store CSV differs from the unsharded store CSV")
	}
}

// TestShardsIntoOneStoreMatchSerial: running the matrix as sequential
// key-range shards into one store — the path a sharded study on one
// machine takes — holds exactly the records of the shards run so far after
// each shard, some shard's flush appends to the log, and after the last
// shard the cells file and CSV are byte-identical to the unsharded run's.
func TestShardsIntoOneStoreMatchSerial(t *testing.T) {
	whole := t.TempDir()
	spec := matrixSpec(2)
	spec.StoreDir = whole
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	wholeJSONL, wholeCSV := readStoreFiles(t, whole)
	serial := storeRecords(t, whole)

	const shards = 6
	dir := t.TempDir()
	var union []store.Record
	appended := false
	for i := range shards {
		s := matrixSpec(2)
		s.StoreDir = dir
		s.ShardIndex, s.ShardCount = i, shards
		res, err := Run(context.Background(), s)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		union = union[:0]
		for _, rec := range serial {
			if res.Shard.Hi == "" || rec.Key < res.Shard.Hi {
				union = append(union, rec)
			}
		}
		if got := storeRecords(t, dir); !slices.Equal(got, union) {
			t.Fatalf("after shard %d the store holds %d records, want the %d of shards 0..%d", i, len(got), len(union), i)
		}
		if _, err := os.Stat(filepath.Join(dir, store.LogFile)); err == nil {
			appended = true
		}
	}
	if !appended {
		t.Error("no shard's flush appended to the log")
	}
	if _, err := os.Stat(filepath.Join(dir, store.LogFile)); !os.IsNotExist(err) {
		t.Errorf("the completed study left its log behind: %v", err)
	}
	gotJSONL, gotCSV := readStoreFiles(t, dir)
	if !bytes.Equal(gotJSONL, wholeJSONL) {
		t.Error("sequential shards into one store differ from the unsharded store")
	}
	if !bytes.Equal(gotCSV, wholeCSV) {
		t.Error("sequential shards' store CSV differs from the unsharded store CSV")
	}
}

// storeRecords returns every record of the store in dir.
func storeRecords(t *testing.T, dir string) []store.Record {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Records()
}

// TestShardManifestRejectsWrongSpec: a manifest cut from one matrix must
// not execute against another — the worker-side proof of assignment.
func TestShardManifestRejectsWrongSpec(t *testing.T) {
	plan, err := matrixSpec(1).ShardPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	other := matrixSpec(1)
	other.Seeds = []int64{7, 8, 9} // different matrix, different keys
	other.Shard = &plan[0]
	if _, err := Run(context.Background(), other); err == nil {
		t.Error("manifest from a different spec accepted")
	} else if !strings.Contains(err.Error(), "different spec") {
		t.Errorf("unexpected error: %v", err)
	}

	bad := matrixSpec(1)
	bad.ShardIndex, bad.ShardCount = 5, 2
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestRunErrorsReleaseConcurrentOpen: Run opens the store while it plans,
// so each planning error must still wait for the open and release the
// lock. A wrong-spec manifest, an out-of-range shard index and an invalid
// cell each fail with the error Run gives without a store, and leave no
// store.lock behind. A held lock fails a valid plan with the open error,
// and an invalid plan with the planning error. The matrix has 20000 cells,
// so hashing them outlasts opening the empty store: a Run that returned
// without waiting for the open would leave the lock to be found.
func TestRunErrorsReleaseConcurrentOpen(t *testing.T) {
	matrix := func() Spec {
		spec := matrixSpec(1)
		spec.Seeds = make([]int64, 5000)
		for i := range spec.Seeds {
			spec.Seeds[i] = int64(i)
		}
		return spec
	}
	plan, err := matrix().ShardPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	wrongSpec := matrix()
	wrongSpec.Seeds[0] = -1 // a different matrix, so different keys
	wrongSpec.Shard = &plan[0]
	badIndex := matrix()
	badIndex.ShardIndex, badIndex.ShardCount = 5, 2
	badCell := matrix()
	badCell.Policies = append(badCell.Policies, PolicyFactory{Name: "nil"})

	dir := t.TempDir()
	lock := filepath.Join(dir, store.LockFile)
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"wrong spec", wrongSpec}, {"shard index", badIndex}, {"invalid cell", badCell}} {
		_, want := Run(context.Background(), tc.spec)
		if want == nil {
			t.Fatalf("%s: no error without a store", tc.name)
		}
		tc.spec.StoreDir = dir
		if _, err := Run(context.Background(), tc.spec); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v with a store, want %v", tc.name, err, want)
		}
		if _, err := os.Stat(lock); !os.IsNotExist(err) {
			t.Fatalf("%s: %s left behind (stat: %v)", tc.name, store.LockFile, err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("%s: store does not reopen: %v", tc.name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	held, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	valid := matrix()
	valid.ShardIndex, valid.ShardCount = 0, 5000 // 4 cells, which the held lock keeps from running
	valid.StoreDir = dir
	if _, err := Run(context.Background(), valid); err == nil || !strings.Contains(err.Error(), "held by another writer") {
		t.Errorf("held lock, valid plan: error %v, want the open error", err)
	}
	badIndex.StoreDir = dir
	if _, err := Run(context.Background(), badIndex); err == nil || !strings.Contains(err.Error(), "shard index 5 outside") {
		t.Errorf("held lock, invalid plan: error %v, want the planning error", err)
	}
	// The failed opens left the holder's lock alone.
	if err := held.Close(); err != nil {
		t.Errorf("closing the holder: %v", err)
	}
}

// TestShardRunAllocs bounds the bytes one shard Run allocates: 10 cells
// of a 3000-cell matrix cut into 300 shards. Such a call must pay for the
// whole matrix's keys and plan and for its own cells, not for a Cell and
// an Identity per matrix cell or a fresh arena per worker. The budget is
// 1.5× the 282 KB measured (linux/amd64, go1.24); expanding every cell
// and building new scratch per call took 1.57 MB.
func TestShardRunAllocs(t *testing.T) {
	const budget = 423_000
	seeds := make([]int64, 1000)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	spec := Spec{
		Platforms:  []platform.Platform{platform.Nexus5()},
		Policies:   []PolicyFactory{Policy("android-default"), Policy("mobicore"), Policy("ondemand+load")},
		Workloads:  []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:      seeds,
		Duration:   20 * time.Millisecond,
		Parallel:   2,
		ShardCount: 300,
	}
	run := func(i int) {
		s := spec
		s.ShardIndex = i
		res, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 10 {
			t.Fatalf("shard %d ran %d cells, want 10", i, len(res.Cells))
		}
	}
	// No collection may empty the scratch pool between the shards.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(0)
	const shards = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= shards; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perShard := (after.TotalAlloc - before.TotalAlloc) / shards
	t.Logf("%d bytes per shard Run", perShard)
	if perShard > budget {
		t.Errorf("a 10-cell shard of a 3000-cell matrix allocates %d bytes, budget %d", perShard, budget)
	}
}
