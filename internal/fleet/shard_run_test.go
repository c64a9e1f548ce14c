package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mobicore/internal/fleet/store"
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
