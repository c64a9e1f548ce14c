package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mobicore/internal/fleet"
	"mobicore/internal/fleet/shard"
	"mobicore/internal/fleet/store"
	"mobicore/internal/fleet/study"
)

// testJob is the small study the in-process tests distribute: 2 policies ×
// 3 seeds = 6 cells of 100ms each.
func testJob() study.JobSpec {
	return study.JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default", "mobicore"},
		Seeds:      []int64{1, 2, 3},
		Workloads:  []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}},
		DurationNS: int64(100 * time.Millisecond),
	}
}

// serialStore runs the job single-process into a fresh store and returns
// the store directory.
func serialStore(t testing.TB, job study.JobSpec) string {
	t.Helper()
	spec, err := job.FleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec.StoreDir = dir
	if _, err := fleet.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

func readJSONL(t testing.TB, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, store.CellsFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobSpecResolution locks the identity names a wire job lowers to:
// the store hashes them into cell keys, so existing stores stay valid
// only while these names hold. It also locks the wire form a coordinator
// sends.
func TestJobSpecResolution(t *testing.T) {
	job := testJob()
	job.Workloads = []study.WorkloadSpec{
		{Kind: "busyloop", Util: 0.5, Threads: 4},
		{Kind: "game", Game: "Subway Surf"},
		{Kind: "geekbench", Threads: 4, Iterations: 1},
		{Kind: "scenario", Scenario: "dayinlife"},
	}
	wire, err := json.Marshal(job.Workloads)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"kind":"busyloop","util":0.5,"threads":4},{"kind":"game","game":"Subway Surf"},{"kind":"geekbench","threads":4,"iterations":1},{"kind":"scenario","scenario":"dayinlife"}]`; string(wire) != want {
		t.Errorf("wire form %s, want %s", wire, want)
	}
	spec, err := job.FleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"busyloop-50%x4", "Subway Surf", "geekbench-x4-i1", "scenario-dayinlife"}
	for i, w := range spec.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d named %q, want %q", i, w.Name, want[i])
		}
	}
	if len(spec.Platforms) != 1 || spec.Platforms[0].Name != "Nexus 5" {
		t.Errorf("platforms %+v", spec.Platforms)
	}

	for _, bad := range []study.JobSpec{
		{},
		{Platforms: []string{"nokia3310"}, Policies: []string{"mobicore"},
			Workloads: []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}}, DurationNS: 1e9},
		{Platforms: []string{"nexus5"}, Policies: []string{"winning"},
			Workloads: []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}}, DurationNS: 1e9},
		{Platforms: []string{"nexus5"}, Policies: []string{"mobicore"},
			Workloads: []study.WorkloadSpec{{Kind: "sleep"}}, DurationNS: 1e9},
		{Platforms: []string{"nexus5"}, Policies: []string{"mobicore"},
			Workloads: []study.WorkloadSpec{{Kind: "game", Game: "Pong"}}, DurationNS: 1e9},
	} {
		if _, err := bad.FleetSpec(); err == nil {
			t.Errorf("job %+v resolved", bad)
		}
	}
}

// TestJobSpecThreadBound: a wire job asking for more than 1024 threads is
// refused before any workload is built, for every kind that takes one;
// the bound itself still resolves.
func TestJobSpecThreadBound(t *testing.T) {
	for _, ws := range []study.WorkloadSpec{
		{Kind: "busyloop", Util: 0.5, Threads: 1025},
		{Kind: "busyloop", Util: 0.5, Threads: 1_000_000_000},
		{Kind: "geekbench", Threads: 1025, Iterations: 1},
	} {
		job := testJob()
		job.Workloads = []study.WorkloadSpec{ws}
		if _, err := job.FleetSpec(); err == nil {
			t.Errorf("workload %+v resolved", ws)
		}
	}
	job := testJob()
	job.Workloads = []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 1024}}
	if _, err := job.FleetSpec(); err != nil {
		t.Errorf("1024 threads: %v", err)
	}
}

// TestDistributedMatchesSerial: two concurrent workers drain a sharded
// study and the coordinator's merged store comes out byte-identical to the
// single-process run — the tentpole guarantee, exercised in-process.
func TestDistributedMatchesSerial(t *testing.T) {
	job := testJob()
	refDir := serialStore(t, job)

	coordDir := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{
		Job:      job,
		StoreDir: coordDir,
		Shards:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = RunWorker(context.Background(), WorkerConfig{
				Coordinator: srv.URL,
				Dir:         filepath.Join(t.TempDir(), "w"),
				Parallel:    1,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("coordinator not done after workers drained the study")
	}
	if total := stats[0].Shards + stats[1].Shards; total != 3 {
		t.Errorf("workers completed %d shards, want 3", total)
	}
	if cells := stats[0].Cells + stats[1].Cells; cells != 6 {
		t.Errorf("workers ran %d cells, want 6", cells)
	}

	// Further claims answer done.
	cl := &Client{Base: srv.URL}
	claim, err := cl.Claim(context.Background(), "late")
	if err != nil {
		t.Fatal(err)
	}
	if !claim.Done {
		t.Errorf("late claim got %+v, want done", claim)
	}
	status, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status.DoneShards != 3 || status.StoredCells != 6 {
		t.Errorf("status %+v", status)
	}

	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readJSONL(t, refDir), readJSONL(t, coordDir)) {
		t.Error("distributed store differs from the serial store")
	}
}

// TestCoordinatorResume: records already in the coordinator's store are
// never re-executed — fully covered shards are born done, partially
// covered ones hand their cached records to the claiming worker.
func TestCoordinatorResume(t *testing.T) {
	job := testJob()
	refDir := serialStore(t, job)

	// Seed the coordinator store with 4 of the 6 reference records.
	refSt, err := store.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	recs := refSt.Records()
	refSt.Close()
	coordDir := t.TempDir()
	seedSt, err := store.Open(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:4] {
		seedSt.Put(rec)
	}
	if err := seedSt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := seedSt.Close(); err != nil {
		t.Fatal(err)
	}

	// 3 shards of 2 cells over a key-sorted store: shards 0 and 1 are
	// fully covered and born done, shard 2 is fully pending.
	coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: coordDir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	stats, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL,
		Dir:         t.TempDir(),
		Parallel:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 1 {
		t.Errorf("worker completed %d shards, want only the uncovered 1", stats.Shards)
	}
	if stats.Cells != 2 || stats.Cached != 0 {
		t.Errorf("stats %+v, want 2 fresh cells", stats)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readJSONL(t, refDir), readJSONL(t, coordDir)) {
		t.Error("resumed distributed store differs from the serial store")
	}
}

// TestLeaseExpiryReassigns: a worker that claims a shard and dies forfeits
// it after the lease timeout; the next claimant gets the same manifest.
func TestLeaseExpiryReassigns(t *testing.T) {
	coordDir := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{
		Job:          testJob(),
		StoreDir:     coordDir,
		Shards:       2,
		LeaseTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord)
	defer srv.Close()

	cl := &Client{Base: srv.URL}
	first, err := cl.Claim(context.Background(), "doomed")
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Claim(context.Background(), "doomed2")
	if err != nil {
		t.Fatal(err)
	}
	if first.Manifest == nil || second.Manifest == nil ||
		first.Manifest.Index == second.Manifest.Index {
		t.Fatalf("claims %+v / %+v, want two distinct shards", first.Manifest, second.Manifest)
	}
	// Both shards leased, none done: further claims are asked to retry.
	if third, err := cl.Claim(context.Background(), "w"); err != nil || third.Manifest != nil || third.Done {
		t.Fatalf("claim with all shards leased: %+v, %v", third, err)
	}
	time.Sleep(50 * time.Millisecond)
	// Leases expired: the shards come around again.
	again, err := cl.Claim(context.Background(), "heir")
	if err != nil {
		t.Fatal(err)
	}
	if again.Manifest == nil {
		t.Fatalf("claim after lease expiry got %+v, want a manifest", again)
	}
}

// TestCompleteRejectsBadFragments: the coordinator re-verifies everything
// a worker submits.
func TestCompleteRejectsBadFragments(t *testing.T) {
	job := testJob()
	refDir := serialStore(t, job)
	refSt, err := store.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	recs := refSt.Records()
	refSt.Close()

	coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord)
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	claim, err := cl.Claim(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	m := claim.Manifest

	post := func(url string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	fragment := readJSONL(t, refDir)

	// Wrong spec hash.
	if code := post(srv.URL+"/v1/complete?shard=0&spec_hash=deadbeef", fragment); code != http.StatusBadRequest {
		t.Errorf("wrong spec hash: %d", code)
	}
	// Short fragment.
	short := bytes.SplitAfterN(fragment, []byte("\n"), 2)[0]
	url := srv.URL + "/v1/complete?shard=0&spec_hash=" + m.SpecHash
	if code := post(url, short); code != http.StatusBadRequest {
		t.Errorf("short fragment: %d", code)
	}
	// Conflicting record: right keys, tampered physics.
	tampered := append([]store.Record(nil), recs...)
	tampered[0].EnergyJ += 1
	var buf bytes.Buffer
	tmpDir := t.TempDir()
	tmpSt, err := store.Open(tmpDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range tampered {
		tmpSt.Put(rec)
	}
	if err := tmpSt.Flush(); err != nil {
		t.Fatal(err)
	}
	tmpSt.Close()
	buf.Write(readJSONL(t, tmpDir))
	// First land the genuine fragment, then the tampered one conflicts.
	if code := post(url, fragment); code != http.StatusOK {
		t.Fatalf("genuine fragment rejected: %d", code)
	}
	if code := post(url, buf.Bytes()); code != http.StatusConflict {
		t.Errorf("conflicting fragment: %d, want 409", code)
	}
	// Idempotent re-complete of identical bytes is accepted.
	if code := post(url, fragment); code != http.StatusOK {
		t.Errorf("idempotent re-complete: %d", code)
	}
}

// TestCompleteRetriesTransientFailures: the client retries connection
// drops and 5xx answers, and gives up immediately on 4xx.
func TestCompleteRetriesTransientFailures(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(inner)
	defer srv.Close()

	cl := &Client{Base: srv.URL}
	m := &shard.Manifest{SpecHash: "abc", Index: 0, Count: 1, Cells: 1}
	if err := cl.Complete(context.Background(), m, []byte("{}\n")); err != nil {
		t.Fatalf("transient failures not retried: %v", err)
	}

	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer srv2.Close()
	cl2 := &Client{Base: srv2.URL}
	start := time.Now()
	if err := cl2.Complete(context.Background(), m, []byte("{}\n")); err == nil {
		t.Fatal("4xx accepted")
	} else if strings.Contains(err.Error(), "after") {
		t.Errorf("4xx was retried: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("4xx path backed off instead of failing fast")
	}
}

// TestWorkerWaitsForLateCoordinator: a worker started before its
// coordinator listens retries the job fetch instead of exiting, then
// drains the study, whose store equals the serial one.
func TestWorkerWaitsForLateCoordinator(t *testing.T) {
	job := testJob()
	refDir := serialStore(t, job)

	coordDir := t.TempDir()
	coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: coordDir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Reserve a loopback port, then free it so the worker's first
	// requests find nothing listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerConfig{
			Coordinator: "http://" + addr,
			Dir:         filepath.Join(t.TempDir(), "w"),
			Parallel:    1,
		})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httptest.Server{Listener: ln, Config: &http.Server{Handler: coord}}
	srv.Start()
	defer srv.Close()

	if err := <-done; err != nil {
		t.Fatalf("worker started before its coordinator: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readJSONL(t, refDir), readJSONL(t, coordDir)) {
		t.Error("store of a late-listening coordinator differs from the serial store")
	}
}
