package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"mobicore/internal/fleet/store"
	"mobicore/internal/fleet/study"
)

// claimJob is a 2-cell job: small enough to run on every fuzz input that
// gets past the claim checks.
func claimJob() study.JobSpec {
	return study.JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default"},
		Seeds:      []int64{1, 2},
		Workloads:  []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 2}},
		DurationNS: int64(10 * time.Millisecond),
	}
}

// claimBody is a live coordinator's claim reply for job planned in shards
// shards over a store holding recs.
func claimBody(t testing.TB, job study.JobSpec, shards int, recs []store.Record) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := st.PutChecked(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	w := httptest.NewRecorder()
	coord.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/claim", bytes.NewReader([]byte(`{"worker":"seed"}`))))
	if w.Code != http.StatusOK {
		t.Fatalf("seed claim: %d %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// FuzzClaimResponse feeds arbitrary bytes to a worker as the coordinator's
// claim reply: through Client.Claim's decode, the retry clamp, checkClaim
// and runShard, for a 2-cell job. No input may panic. A reply the worker
// accepts must yield a fragment that a fresh coordinator of the job, with
// the claimed shard count, accepts through its Complete checks.
func FuzzClaimResponse(f *testing.F) {
	job := claimJob()
	spec, err := job.FleetSpec()
	if err != nil {
		f.Fatal(err)
	}
	keys, err := spec.Keys()
	if err != nil {
		f.Fatal(err)
	}
	sort.Strings(keys)
	recs := storeRecords(f, serialStore(f, job))
	f.Add(claimBody(f, job, 1, nil))
	f.Add(claimBody(f, job, 1, recs[:1]))
	f.Add(claimBody(f, job, 2, nil))
	f.Add(claimBody(f, job, 2, recs[1:]))
	f.Add([]byte(`{"done":true}`))
	f.Add([]byte(`{"retry_ms":9223372036854775807}`))
	f.Add([]byte(`{"retry_ms":-5}`))
	tampered := bytes.Replace(claimBody(f, job, 1, recs[:1]), []byte(`"finished":true`), []byte(`"finished":false`), 1)
	f.Add(tampered)
	f.Add(bytes.Replace(claimBody(f, job, 2, nil), []byte(`"cells":1`), []byte(`"cells":2`), 1))

	// One server answers every input's claim with that input's bytes.
	var (
		mu    sync.Mutex
		reply []byte
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		defer mu.Unlock()
		w.Write(reply)
	}))
	defer srv.Close()

	f.Fuzz(func(t *testing.T, body []byte) {
		mu.Lock()
		reply = body
		mu.Unlock()
		ctx := context.Background()
		claim, err := (&Client{Base: srv.URL}).Claim(ctx, "fuzz")
		if err != nil || claim.Done {
			return
		}
		if claim.Manifest == nil {
			if w := retryWait(claim.RetryMS); w <= 0 || w > maxRetryWait {
				t.Fatalf("retry_ms %d waits %v", claim.RetryMS, w)
			}
			return
		}
		if err := checkClaim(claim, keys); err != nil {
			return
		}
		_, fragment, err := runShard(ctx, spec, WorkerConfig{Dir: t.TempDir(), Parallel: 1}, claim)
		if err != nil {
			// Only seeding the fragment store may still refuse a checked
			// claim (two cached records under one key that disagree).
			return
		}
		coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: t.TempDir(), Shards: claim.Manifest.Count})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		url := fmt.Sprintf("/v1/complete?shard=%d&spec_hash=%s", claim.Manifest.Index, claim.Manifest.SpecHash)
		w := httptest.NewRecorder()
		coord.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(fragment)))
		if w.Code != http.StatusOK {
			m, _ := json.Marshal(claim.Manifest)
			t.Fatalf("accepted claim (manifest %s, %d cached) produced a fragment the coordinator refuses: %d %s", m, len(claim.Cached), w.Code, w.Body)
		}
	})
}

// TestCheckClaim: a live coordinator's claims pass; a manifest that is not
// the plan's shard, a cached record whose key is not its identity's, and a
// cached record from another shard are each refused before anything runs.
func TestCheckClaim(t *testing.T) {
	job := claimJob()
	spec, err := job.FleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec.Keys()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	recs := storeRecords(t, serialStore(t, job))
	decode := func(body []byte) ClaimResponse {
		var c ClaimResponse
		if err := json.Unmarshal(body, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	whole := decode(claimBody(t, job, 1, recs[:1]))
	if len(whole.Cached) != 1 {
		t.Fatalf("seeded claim carries %d cached records, want 1", len(whole.Cached))
	}
	half := decode(claimBody(t, job, 2, nil))
	for name, c := range map[string]ClaimResponse{"whole": whole, "half": half} {
		if err := checkClaim(c, keys); err != nil {
			t.Errorf("%s: live claim refused: %v", name, err)
		}
	}

	bad := map[string]ClaimResponse{}
	m := *half.Manifest
	m.Hi = ""
	bad["stretched range"] = ClaimResponse{Manifest: &m}
	m2 := *half.Manifest
	m2.Count = 1_000_000_000
	bad["absurd count"] = ClaimResponse{Manifest: &m2}
	m3 := *half.Manifest
	m3.Index = -1
	bad["negative index"] = ClaimResponse{Manifest: &m3}
	rekeyed := recs[0]
	rekeyed.Key = recs[1].Key
	bad["key not its identity's"] = ClaimResponse{Manifest: whole.Manifest, Cached: []store.Record{rekeyed}}
	var other store.Record
	for _, rec := range recs {
		if !half.Manifest.Contains(rec.Key) {
			other = rec
		}
	}
	bad["record from another shard"] = ClaimResponse{Manifest: half.Manifest, Cached: []store.Record{other}}
	for name, c := range bad {
		if err := checkClaim(c, keys); err == nil {
			t.Errorf("%s: claim accepted", name)
		}
	}
}

// TestRetryWait pins the poll interval clamp.
func TestRetryWait(t *testing.T) {
	for ms, want := range map[int]time.Duration{
		-1: 200 * time.Millisecond, 0: 200 * time.Millisecond, 5: 5 * time.Millisecond,
		60_000: maxRetryWait, 1 << 62: maxRetryWait,
	} {
		if got := retryWait(ms); got != want {
			t.Errorf("retryWait(%d) = %v, want %v", ms, got, want)
		}
	}
}
