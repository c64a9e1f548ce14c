package remote

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mobicore/internal/fleet/study"
)

// BenchmarkShardScaling measures distributed-study throughput against the
// worker count: one coordinator, W workers (each running its shards
// serially, Parallel=1, so scaling comes from the fleet of workers rather
// than in-process fan-out), 8 shards over a 32-cell matrix of 4s sessions.
// b.ReportMetric exposes cells/s; on a multi-core host 2 workers should
// clear well over 1.7× the single-worker rate — the coordination tax
// (HTTP/JSON, manifest verification, per-shard store flushes) stays small
// against the simulation work.
func BenchmarkShardScaling(b *testing.B) {
	job := study.JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default", "mobicore"},
		Seeds:      seedRange(1, 16),
		Workloads:  []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}},
		DurationNS: int64(4 * time.Second),
	}
	const cells = 32
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coord, err := NewCoordinator(CoordinatorConfig{
					Job:      job,
					StoreDir: b.TempDir(),
					Shards:   8,
					// Tight claim polling: on a study this small the
					// default 200ms idle poll would dominate the tail
					// where the last shards are leased out.
					RetryMS: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(coord)
				scratch := b.TempDir()
				b.StartTimer()

				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						_, errs[w] = RunWorker(context.Background(), WorkerConfig{
							Coordinator: srv.URL,
							Dir:         filepath.Join(scratch, fmt.Sprintf("w%d", w)),
							Parallel:    1,
						})
					}(w)
				}
				wg.Wait()

				b.StopTimer()
				for w, err := range errs {
					if err != nil {
						b.Fatalf("worker %d: %v", w, err)
					}
				}
				select {
				case <-coord.Done():
				default:
					b.Fatal("study not done after workers drained it")
				}
				srv.Close()
				if err := coord.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			rate := float64(cells*b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "cells/s")
			// Flat cells/s/worker across the worker counts means the
			// coordinator adds no per-worker overhead; a drop quantifies
			// the shard-protocol cost.
			b.ReportMetric(rate/float64(workers), "cells/s/worker")
		})
	}
}
