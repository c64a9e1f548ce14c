package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mobicore/internal/fleet/shard"
	"mobicore/internal/fleet/store"
	"mobicore/internal/fleet/study"
)

// fragmentRef is the reference verdict on a fragment body for manifest
// m: its records if every non-empty line decodes, carries its own key,
// lies in m's range and is unique, and there are exactly m.Cells of them.
func fragmentRef(body []byte, m shard.Manifest) ([]store.Record, bool) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1024), 1<<20)
	seen := map[string]bool{}
	var recs []store.Record
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec store.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, false
		}
		if rec.Identity.Key() != rec.Key || !m.Contains(rec.Key) || seen[rec.Key] {
			return nil, false
		}
		seen[rec.Key] = true
		recs = append(recs, rec)
	}
	return recs, sc.Err() == nil && len(recs) == m.Cells
}

// encodeRecords is the cells file of a record set: json.Marshal's line
// for each record, sorted by key.
func encodeRecords(t testing.TB, recs map[string]store.Record) []byte {
	t.Helper()
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		line, err := json.Marshal(recs[k])
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

// fragmentsOf cuts a serial store's records into one fragment body per
// manifest.
func fragmentsOf(t testing.TB, recs []store.Record, plan []shard.Manifest) [][]byte {
	t.Helper()
	out := make([][]byte, len(plan))
	for _, rec := range recs {
		for i, m := range plan {
			if m.Contains(rec.Key) {
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = append(append(out[i], line...), '\n')
			}
		}
	}
	return out
}

func storeRecords(t testing.TB, dir string) []store.Record {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := st.Records()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// FuzzCompleteFragment posts two arbitrary fragments to a fresh
// coordinator of a 2-shard job. No input may panic; each answer must be
// the reference verdict — 400 for a bad shard index or a fragment
// fragmentRef refuses, 409 for a record that conflicts with one held, 200
// otherwise; and after every answer cells.jsonl must hold exactly the
// encoding of the records accepted so far.
func FuzzCompleteFragment(f *testing.F) {
	job := testJob()
	spec, err := job.FleetSpec()
	if err != nil {
		f.Fatal(err)
	}
	plan, err := spec.ShardPlan(2)
	if err != nil {
		f.Fatal(err)
	}
	recs := storeRecords(f, serialStore(f, job))
	frags := fragmentsOf(f, recs, plan)
	tampered := bytes.Replace(frags[1], []byte(`"finished":true`), []byte(`"finished":false`), 1)
	f.Add(uint8(0), frags[0], uint8(1), frags[1])
	f.Add(uint8(1), frags[1], uint8(1), frags[1])
	f.Add(uint8(1), frags[1], uint8(1), tampered)
	f.Add(uint8(0), frags[1], uint8(2), frags[0])
	f.Add(uint8(0), append(frags[0], frags[0]...), uint8(0), bytes.ReplaceAll(frags[0], []byte("\n"), []byte("\r\n\n")))
	f.Add(uint8(0), frags[0][:len(frags[0])/2], uint8(1), bytes.ReplaceAll(frags[1], []byte(`":`), []byte(`": `)))

	f.Fuzz(func(t *testing.T, shardA uint8, bodyA []byte, shardB uint8, bodyB []byte) {
		dir := t.TempDir()
		coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: dir, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		held := map[string]store.Record{}
		var cells []byte
		for _, post := range []struct {
			shard uint8
			body  []byte
		}{{shardA, bodyA}, {shardB, bodyB}} {
			idx := int(post.shard % 3) // 2 is out of range
			url := fmt.Sprintf("/v1/complete?shard=%d&spec_hash=%s", idx, plan[0].SpecHash)
			w := httptest.NewRecorder()
			coord.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(post.body)))

			want := http.StatusBadRequest
			var recs []store.Record
			if idx < len(plan) {
				var ok bool
				if recs, ok = fragmentRef(post.body, plan[idx]); ok {
					want = http.StatusOK
					for _, rec := range recs {
						if have, ok := held[rec.Key]; ok && have != rec {
							want = http.StatusConflict
						}
					}
				}
			}
			if w.Code != want {
				t.Fatalf("shard %d fragment %q: status %d (%s), want %d", idx, post.body, w.Code, w.Body, want)
			}
			if w.Code == http.StatusOK {
				for _, rec := range recs {
					held[rec.Key] = rec
				}
				cells = encodeRecords(t, held)
			}
			got, err := os.ReadFile(filepath.Join(dir, store.CellsFile))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if !bytes.Equal(got, cells) {
				t.Fatalf("after a %d answer cells.jsonl is\n%s\nwant\n%s", w.Code, got, cells)
			}
		}
	})
}

// BenchmarkCoordinatorFragments times a coordinator accepting the 32
// fragments of a 3072-cell study, in shard order, into a fresh store: the
// store grows to 3072 records; a fragment's Flush appends it to the log
// or, when the log would reach the cells file's size, rewrites the cells
// file, and the last fragment compacts.
func BenchmarkCoordinatorFragments(b *testing.B) {
	job := study.JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default", "mobicore"},
		Seeds:      seedRange(1, 1536),
		Workloads:  []study.WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}},
		DurationNS: int64(10 * time.Millisecond),
	}
	const shards = 32
	spec, err := job.FleetSpec()
	if err != nil {
		b.Fatal(err)
	}
	plan, err := spec.ShardPlan(shards)
	if err != nil {
		b.Fatal(err)
	}
	frags := fragmentsOf(b, storeRecords(b, serialStore(b, job)), plan)
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		coord, err := NewCoordinator(CoordinatorConfig{Job: job, StoreDir: b.TempDir(), Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i, body := range frags {
			url := fmt.Sprintf("/v1/complete?shard=%d&spec_hash=%s", i, plan[i].SpecHash)
			w := httptest.NewRecorder()
			coord.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("fragment %d: %d %s", i, w.Code, w.Body)
			}
		}
		b.StopTimer()
		if err := coord.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
