package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mobicore/internal/platform"
)

// arenaMatrixSpec is the heterogeneous matrix the arena-identity tests run:
// two platform shapes (homogeneous 4-core, big.LITTLE 8-core) interleave on
// every worker, so arena buffers grow and shrink between cells, and the
// scenario workload draws from the session rng the arena reseeds.
func arenaMatrixSpec(par int) Spec {
	return Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.Nexus6P()},
		Policies:  []PolicyFactory{Policy("android-default"), Policy("mobicore")},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4), scenarioFactory("dayinlife")},
		Seeds:     []int64{1, 2},
		Duration:  time.Second,
		Parallel:  par,
	}
}

// renderings carries one run's rendered outputs for cross-run comparison.
type renderings struct{ txt, csv, js, store string }

// TestFleetArenaMatchesFreshAllocation: the fleet path (worker arenas
// and trace writers pooled across Runs, cached platform precompute) must
// produce byte-identical output to per-cell fresh allocation — same
// reports, same store records, same trace files — at parallel 1 and
// parallel 8, and when the matrix runs as consecutive shard Runs that
// take their scratch from the pool the earlier Runs filled.
func TestFleetArenaMatchesFreshAllocation(t *testing.T) {
	var outputs []renderings
	for _, par := range []int{1, 8} {
		dir := t.TempDir()
		spec := arenaMatrixSpec(par)
		spec.StoreDir = filepath.Join(dir, "store")
		spec.TraceDir = filepath.Join(dir, "traces")
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}

		// Fresh baseline: every cell through runCell with its own new
		// scratch — an empty arena and no recycled writer, so every buffer
		// is allocated anew; the platform cache is still in play, which is
		// the point: caching must be output-invisible.
		freshTraces := filepath.Join(dir, "fresh-traces")
		if err := os.MkdirAll(freshTraces, 0o755); err != nil {
			t.Fatal(err)
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			key := c.identity().Key()
			fresh, err := runCell(context.Background(), i, c, key, freshTraces, newCellScratch())
			if err != nil {
				t.Fatalf("parallel %d cell %d: %v", par, i, err)
			}
			got := res.Cells[i]
			if !reflect.DeepEqual(got.Report, fresh.Report) {
				t.Errorf("parallel %d cell %d (%s): arena report differs from fresh report", par, i, key)
			}
			arenaBytes, err := os.ReadFile(filepath.Join(spec.TraceDir, TraceFileName(key)))
			if err != nil {
				t.Fatal(err)
			}
			freshBytes, err := os.ReadFile(filepath.Join(freshTraces, TraceFileName(key)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(arenaBytes, freshBytes) {
				t.Errorf("parallel %d cell %d (%s): trace bytes differ (recycled gzip writer not reset cleanly?)", par, i, key)
			}
		}

		var txt, csv bytes.Buffer
		if err := res.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		storeBytes, err := os.ReadFile(filepath.Join(spec.StoreDir, "cells.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, renderings{txt.String(), csv.String(), string(js), string(storeBytes)})
	}
	if outputs[0] != outputs[1] {
		t.Error("parallel-8 arena output differs from parallel-1 output (text/CSV/JSON/store)")
	}

	// The same matrix as three consecutive shard Runs into one store and
	// trace directory: every trace matches fresh allocation's, and the
	// completed cells.jsonl the whole-matrix runs'.
	dir := t.TempDir()
	freshTraces := filepath.Join(dir, "fresh-traces")
	if err := os.MkdirAll(freshTraces, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := arenaMatrixSpec(2)
	spec.StoreDir = filepath.Join(dir, "store")
	spec.TraceDir = filepath.Join(dir, "traces")
	spec.ShardCount = 3
	for i := range spec.ShardCount {
		spec.ShardIndex = i
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		key := c.identity().Key()
		if _, err := runCell(context.Background(), i, c, key, freshTraces, newCellScratch()); err != nil {
			t.Fatal(err)
		}
		pooled, err := os.ReadFile(filepath.Join(spec.TraceDir, TraceFileName(key)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(freshTraces, TraceFileName(key)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pooled, want) {
			t.Errorf("cell %d (%s): sharded-run trace differs from the fresh one", i, key)
		}
	}
	storeBytes, err := os.ReadFile(filepath.Join(spec.StoreDir, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(storeBytes) != outputs[0].store {
		t.Error("sharded-run cells.jsonl differs from the whole-matrix run's")
	}
}

// TestFleetSharedModelMatchesUncached drives many cells across 8 workers
// that all share the process-wide cached platform precompute (one em.Model,
// one leak table per profile), then re-runs every cell against a baseline
// that defeats the cache with a uniquely renamed profile clone — a fresh,
// unshared precompute per cell. The physics must not notice: every numeric
// field of every report matches exactly. Run with -race in CI, this is also
// the concurrency proof for the shared immutable models.
func TestFleetSharedModelMatchesUncached(t *testing.T) {
	spec := Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.Nexus6P(), platform.SD855()},
		Policies:  []PolicyFactory{Policy("android-default"), Policy("mobicore")},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:     []int64{1, 2, 3, 4},
		Duration:  500 * time.Millisecond,
		Parallel:  8,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		// A unique name means this cell's Compiled is built fresh and
		// shared with nobody — the uncached path.
		c.Platform.Name = fmt.Sprintf("%s [uncached %d]", c.Platform.Name, i)
		fresh, err := runCell(context.Background(), i, c, "k", "", newCellScratch())
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		got := *res.Cells[i].Report
		want := *fresh.Report
		// Normalize the one intentional difference before comparing.
		want.Platform = got.Platform
		if !reflect.DeepEqual(&got, &want) {
			t.Errorf("cell %d: shared-model report differs from uncached report", i)
		}
	}
}
