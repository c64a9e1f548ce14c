// Command mobifleetd runs one side of a horizontally scaled fleet study.
//
// Coordinator mode (the default) owns the study: it cuts the simulation
// matrix into key-range shards, serves them over HTTP/JSON, collects the
// workers' store fragments into its result store, and exits when every
// shard has completed:
//
//	mobifleetd -listen :7077 -store out/ -shards 8 \
//	    -platforms nexus5,nexus6p -policies android-default,mobicore \
//	    -seeds 50 -dur 30s
//
// The matrix flags (-platforms -policies -scheds -seeds -seed -dur
// -workload -util -threads -game -iterations -scenario) are mobifleet's,
// registered by the same internal/fleet/study code, so the same flags name
// the same cells and store keys in both commands:
//
//	mobifleetd -store out/ -platforms all -policies all -workload scenario -seeds 20
//
// Worker mode executes shards for a coordinator until the study is done:
//
//	mobifleetd -worker http://127.0.0.1:7077 -dir /tmp/w1 -name w1
//
// Workers carry no study configuration — they fetch the job from the
// coordinator, verify every shard manifest against their own expansion of
// it, skip cells the coordinator's store already holds, and stream their
// JSONL fragments back (with retry on transient failures). The
// coordinator's merged store is byte-identical to a single-process run of
// the same matrix, whatever the worker count or completion order. Render
// it with `mobifleet -report <store>`; diff it against another study with
// `mobifleet -diff`.
//
// A restarted coordinator resumes: shards its store already fully covers
// are never re-issued. A worker that dies mid-shard forfeits its lease
// (-lease) and another worker picks the shard up, resuming from whatever
// the coordinator had stored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobicore/internal/fleet/remote"
	"mobicore/internal/fleet/study"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		worker   = flag.String("worker", "", "run as a worker for this coordinator URL (empty = coordinator mode)")
		dir      = flag.String("dir", "", "worker scratch directory for shard fragment stores")
		name     = flag.String("name", "", "worker name shown in coordinator status")
		parallel = flag.Int("parallel", 0, "worker in-process pool size per shard (0 = GOMAXPROCS)")

		listen   = flag.String("listen", "127.0.0.1:7077", "coordinator listen address")
		storeDir = flag.String("store", "", "coordinator result store directory")
		shards   = flag.Int("shards", 4, "number of key-range shards to cut the matrix into")
		lease    = flag.Duration("lease", time.Minute, "shard lease timeout before re-issuing to another worker")
	)
	matrix := study.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker != "" {
		return runWorker(ctx, *worker, *dir, *name, *parallel)
	}

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "mobifleetd: coordinator mode needs -store")
		return 1
	}
	job, err := matrix.Job()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobifleetd:", err)
		return 1
	}
	coord, err := remote.NewCoordinator(remote.CoordinatorConfig{
		Job:          job,
		StoreDir:     *storeDir,
		Shards:       *shards,
		LeaseTimeout: *lease,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobifleetd:", err)
		return 1
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobifleetd:", err)
		return 1
	}
	srv := &http.Server{Handler: coord}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("mobifleetd: coordinating %d shards on http://%s (store %s)\n",
		*shards, ln.Addr(), *storeDir)

	code := 0
	select {
	case <-coord.Done():
		fmt.Println("mobifleetd: study complete")
		// Linger past the workers' poll interval so everyone still in a
		// claim loop hears "done" and exits cleanly instead of hitting a
		// closed listener.
		time.Sleep(time.Second)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "mobifleetd: interrupted — store holds completed shards; restart to resume")
		code = 130
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "mobifleetd:", err)
		code = 1
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shCtx)
	if err := coord.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mobifleetd:", err)
		return 1
	}
	return code
}

func runWorker(ctx context.Context, url, dir, name string, parallel int) int {
	if dir == "" {
		d, err := os.MkdirTemp("", "mobifleetd-worker-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobifleetd:", err)
			return 1
		}
		defer os.RemoveAll(d)
		dir = d
	}
	stats, err := remote.RunWorker(ctx, remote.WorkerConfig{
		Coordinator: url,
		Dir:         dir,
		Parallel:    parallel,
		Name:        name,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "mobifleetd:", err)
		return 1
	}
	fmt.Printf("mobifleetd: worker done — %d shards, %d cells (%d answered from coordinator cache)\n",
		stats.Shards, stats.Cells, stats.Cached)
	if errors.Is(err, context.Canceled) {
		return 130
	}
	return 0
}
