package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/platform"
	"mobicore/internal/sim"
)

// benchSpec is a 4-cell matrix (2 platforms × 2 seeds) of 2-second
// busy-loop sessions — small enough for the CI bench smoke, long enough
// that per-cell work dominates pool overhead.
func benchSpec(par int) Spec {
	return Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.Nexus6P()},
		Policies:  []PolicyFactory{Policy("android-default")},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:     []int64{1, 2},
		Duration:  2 * time.Second,
		Parallel:  par,
	}
}

// BenchmarkFleet measures the batch driver's wall-clock scaling: the same
// 4-cell matrix serial (-parallel 1) and fanned out (-parallel 4). On a
// ≥ 4-core host the parallel case should finish in under half the serial
// wall-clock; b.ReportMetric exposes cells/s for the comparison.
func BenchmarkFleet(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), benchSpec(par))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != 4 {
					b.Fatalf("cells = %d, want 4", len(res.Cells))
				}
			}
			rate := float64(4*b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "cells/s")
			// Per-worker throughput exposes the pool's scaling efficiency:
			// flat cells/s/worker across the parallel cases means linear
			// scaling; a drop quantifies contention.
			b.ReportMetric(rate/float64(par), "cells/s/worker")
		})
	}
}

// matrixBenchSpec is the larger phase-2 matrix: 2 platforms × 3 policies ×
// 2 placers × 2 seeds = 24 cells, mixing homogeneous and big.LITTLE shapes
// and both placement rules so arena buffers resize between cells exactly as
// a real study's workers see them.
func matrixBenchSpec(par int) Spec {
	return Spec{
		Platforms: []platform.Platform{platform.Nexus5(), platform.Nexus6P()},
		Policies: []PolicyFactory{
			Policy("android-default"),
			Policy("mobicore"),
			Policy("ondemand+load"),
		},
		Placers:   []string{sim.PlacerGreedy, sim.PlacerEAS},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:     []int64{1, 2},
		Duration:  time.Second,
		Parallel:  par,
	}
}

// BenchmarkFleetMatrix measures fleet throughput on the 24-cell phase-2
// matrix, reporting cells/s and allocations per cell. allocs/cell is the
// arena's success metric: it should sit near per-cell construction cost
// (fresh managers and workloads, which the spec mandates) instead of
// scaling with session duration.
func BenchmarkFleetMatrix(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel%d", par), func(b *testing.B) {
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), matrixBenchSpec(par))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != 24 {
					b.Fatalf("cells = %d, want 24", len(res.Cells))
				}
			}
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			cells := float64(24 * b.N)
			rate := cells / b.Elapsed().Seconds()
			b.ReportMetric(rate, "cells/s")
			b.ReportMetric(rate/float64(par), "cells/s/worker")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/cells, "allocs/cell")
		})
	}
}

// BenchmarkSessionNew isolates session construction — factory-built manager
// and workloads plus engine assembly, no execution — fresh versus through a
// warm arena. "fresh" builds every session in a new arena, as sim.New
// does. The delta is what the per-platform precompute cache and the arena
// save every cell before a single tick runs.
func BenchmarkSessionNew(b *testing.B) {
	cells, err := benchSpec(1).Cells()
	if err != nil {
		b.Fatal(err)
	}
	build := func(b *testing.B, arena func() *sim.Arena) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp, err := cells[i%len(cells)].session()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sp.NewIn(arena()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) { build(b, sim.NewArena) })
	warm := sim.NewArena()
	b.Run("arena", func(b *testing.B) { build(b, func() *sim.Arena { return warm }) })
}

// traceTick is one recorded PowerTrace call.
type traceTick struct {
	now, dt  time.Duration
	systemW  float64
	clusterW []float64
}

// BenchmarkTraceHook measures the power-trace export per tick: line
// encoding, deflating and the file write, over the sample stream of a
// 30 s Nexus 5 mobicore day-in-the-life session replayed in a loop. The
// writer is warm (its buffers sized by a first pass), so allocs/op must
// read 0. gz-bytes/tick is the first pass's compressed file size over its
// tick count.
func BenchmarkTraceHook(b *testing.B) {
	c := Cell{
		Platform: platform.Nexus5(),
		Policy:   Policy("mobicore"),
		Workload: scenarioFactory("dayinlife"),
		Seed:     1,
		Duration: 30 * time.Second,
	}
	sp, err := c.session()
	if err != nil {
		b.Fatal(err)
	}
	var ticks []traceTick
	sp.PowerTrace = func(now, dt time.Duration, systemW float64, clusterW []float64) {
		ticks = append(ticks, traceTick{now, dt, systemW, append([]float64(nil), clusterW...)})
	}
	if _, err := sp.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	tw, err := newTraceWriter(dir, "warm", nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, tk := range ticks {
		tw.hook(tk.now, tk.dt, tk.systemW, tk.clusterW)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	warm, err := os.Stat(filepath.Join(dir, TraceFileName("warm")))
	if err != nil {
		b.Fatal(err)
	}
	if tw, err = newTraceWriter(dir, "measured", tw); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := &ticks[i%len(ticks)]
		tw.hook(tk.now, tk.dt, tk.systemW, tk.clusterW)
	}
	b.StopTimer()
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(warm.Size())/float64(len(ticks)), "gz-bytes/tick")
}

// BenchmarkSequentialShards runs a 300-cell matrix (3 policies × 100
// seeds of 50 ms Nexus 5 sessions) as 10 sequential key-range shards into
// one store, the calling pattern of the benchmark's fleet-store-churn
// workload: each shard expands and hashes the whole matrix, plans its
// range, decodes the store the previous shard flushed, and flushes it
// again.
func BenchmarkSequentialShards(b *testing.B) {
	const shards = 10
	seeds := make([]int64, 100)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	spec := Spec{
		Platforms: []platform.Platform{platform.Nexus5()},
		Policies:  []PolicyFactory{Policy("android-default"), Policy("mobicore"), Policy("ondemand+load")},
		Workloads: []WorkloadFactory{busyFactory(0.5, 4)},
		Seeds:     seeds,
		Duration:  50 * time.Millisecond,
	}
	b.ReportAllocs()
	for b.Loop() {
		spec.StoreDir = b.TempDir()
		cells := 0
		for i := range shards {
			s := spec
			s.ShardIndex, s.ShardCount = i, shards
			res, err := Run(context.Background(), s)
			if err != nil {
				b.Fatal(err)
			}
			cells += len(res.Cells)
		}
		if cells != 300 {
			b.Fatalf("shards ran %d cells, want 300", cells)
		}
	}
	b.ReportMetric(float64(300*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// churnStore fills a store under dir with 3000 records shaped like the
// benchmark's fleet-store-churn study: one platform, 3 policies × 1000
// seeds of a 200 ms scenario workload, every metric a full-precision
// float.
func churnStore(b *testing.B, dir string) {
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, policy := range []string{"mobicore", "android-default", "ondemand+offline"} {
		for seed := int64(1); seed <= 1000; seed++ {
			id := store.Identity{
				Platform:   "Nexus 5",
				Policy:     policy,
				Workload:   "scenario-dayinlife",
				Placer:     sim.PlacerGreedy,
				Seed:       seed,
				DurationNS: int64(200 * time.Millisecond),
				TickNS:     int64(time.Millisecond),
				SampleNS:   int64(50 * time.Millisecond),
			}
			st.Put(store.Record{
				Key:            id.Key(),
				Identity:       id,
				Finished:       true,
				ElapsedNS:      id.DurationNS,
				AvgPowerW:      0.2 + rng.Float64(),
				PeakPowerW:     1 + rng.Float64(),
				EnergyJ:        0.05 + rng.Float64()/5,
				AvgFreqHz:      3e8 + 2e9*rng.Float64(),
				AvgOnlineCores: 1 + 3*rng.Float64(),
				AvgUtil:        rng.Float64(),
				AvgQuota:       1,
				AvgTempC:       22 + rng.Float64(),
				MaxTempC:       23 + rng.Float64(),
				ExecutedCycles: 1e8 * rng.Float64(),
			})
		}
	}
	if err := st.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreReport times the store-backed report (`mobifleet -report`)
// on a 3000-record churn-shaped store, split as the benchmark's report_ms
// splits it: "load" is LoadStoreResult (open, decode, sort, aggregate and
// compare), "text" is WriteText and "csv" is WriteCSV of the loaded result.
func BenchmarkStoreReport(b *testing.B) {
	dir := b.TempDir()
	churnStore(b, dir)
	res, err := LoadStoreResult(dir)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Cells) != 3000 {
		b.Fatalf("store holds %d cells, want 3000", len(res.Cells))
	}
	for _, sub := range []struct {
		name string
		run  func() error
	}{
		{"load", func() error { _, err := LoadStoreResult(dir); return err }},
		{"text", func() error { return res.WriteText(io.Discard) }},
		{"csv", func() error { return res.WriteCSV(io.Discard) }},
	} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := sub.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3000*b.N), "ns/cell")
		})
	}
}
