package remote

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/store"
	"mobicore/internal/fleet/study"
)

// The multi-process smoke re-execs this test binary as worker processes:
// TestMain diverts to testWorkerMain when the coordinator-URL env var is
// set, so a "worker process" is the real RunWorker code path over a real
// TCP connection — not a goroutine pretending.
const (
	envCoord = "MOBIFLEETD_TEST_COORD"
	envDir   = "MOBIFLEETD_TEST_DIR"
	envMode  = "MOBIFLEETD_TEST_MODE"
)

func TestMain(m *testing.M) {
	if url := os.Getenv(envCoord); url != "" {
		os.Exit(testWorkerMain(url))
	}
	os.Exit(m.Run())
}

func testWorkerMain(url string) int {
	if os.Getenv(envMode) == "abandon" {
		// Claim a shard and exit without completing it — a worker dying
		// mid-shard, minus the nondeterminism of actually killing one.
		cl := &Client{Base: url}
		claim, err := cl.Claim(context.Background(), "casualty")
		if err != nil || claim.Manifest == nil {
			fmt.Fprintf(os.Stderr, "abandon worker: claim = %+v, %v\n", claim, err)
			return 1
		}
		fmt.Printf("abandoned shard %d\n", claim.Manifest.Index)
		return 0
	}
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: url,
		Dir:         os.Getenv(envDir),
		Parallel:    2,
		Name:        fmt.Sprintf("pid%d", os.Getpid()),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	fmt.Printf("shards=%d cells=%d cached=%d\n", stats.Shards, stats.Cells, stats.Cached)
	return 0
}

// TestMultiProcessStudy: a coordinator plus two worker processes drain a
// 100-cell study over real HTTP — after one claimed shard is abandoned by
// a dying worker — and the merged store and CSV are byte-identical to the
// single-process run.
func TestMultiProcessStudy(t *testing.T) {
	job := study.JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default", "mobicore"},
		Seeds:      seedRange(1, 50),
		Workloads:  []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}},
		DurationNS: int64(100 * time.Millisecond),
	}
	refDir := serialStore(t, job)

	coordDir := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{
		Job:          job,
		StoreDir:     coordDir,
		Shards:       8,
		LeaseTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	workerCmd := func(mode string) (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			envCoord+"="+srv.URL,
			envDir+"="+t.TempDir(),
			envMode+"="+mode,
		)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		return cmd, &out
	}

	// One worker claims a shard and dies before completing it.
	abandon, aOut := workerCmd("abandon")
	if err := abandon.Run(); err != nil {
		t.Fatalf("abandon worker: %v\n%s", err, aOut)
	}
	if !strings.Contains(aOut.String(), "abandoned shard") {
		t.Fatalf("abandon worker output: %q", aOut)
	}

	// Two healthy workers drain the rest — including, once its lease
	// expires, the forfeited shard.
	w1, out1 := workerCmd("work")
	w2, out2 := workerCmd("work")
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Wait(); err != nil {
		t.Fatalf("worker 1: %v\n%s", err, out1)
	}
	if err := w2.Wait(); err != nil {
		t.Fatalf("worker 2: %v\n%s", err, out2)
	}

	select {
	case <-coord.Done():
	default:
		t.Fatalf("coordinator not done after both workers exited\nw1: %s\nw2: %s", out1, out2)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	readCSV := func(dir string) []byte {
		t.Helper()
		res, err := fleet.LoadStoreResult(dir)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	refJSONL, err := os.ReadFile(filepath.Join(refDir, store.CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	gotJSONL, err := os.ReadFile(filepath.Join(coordDir, store.CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSONL, gotJSONL) {
		t.Errorf("distributed store differs from serial store (%d vs %d bytes)", len(gotJSONL), len(refJSONL))
	}
	if !bytes.Equal(readCSV(refDir), readCSV(coordDir)) {
		t.Error("distributed store CSV differs from serial store CSV")
	}
}

func seedRange(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}
