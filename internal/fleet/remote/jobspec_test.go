package remote

import (
	"encoding/json"
	"reflect"
	"testing"

	"mobicore/internal/fleet/shard"
)

// TestJobSpecThreadBound: a thread count above maxThreads is refused
// before any workload is built, for every kind that takes one; the bound
// itself still resolves.
func TestJobSpecThreadBound(t *testing.T) {
	for _, ws := range []WorkloadSpec{
		{Kind: "busyloop", Util: 0.5, Threads: maxThreads + 1},
		{Kind: "busyloop", Util: 0.5, Threads: 1_000_000_000},
		{Kind: "geekbench", Threads: maxThreads + 1, Iterations: 1},
	} {
		job := testJob()
		job.Workloads = []WorkloadSpec{ws}
		if _, err := job.FleetSpec(); err == nil {
			t.Errorf("workload %+v resolved", ws)
		}
	}
	job := testJob()
	job.Workloads = []WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: maxThreads}}
	if _, err := job.FleetSpec(); err != nil {
		t.Errorf("%d threads: %v", maxThreads, err)
	}
}

// fuzzMaxCells caps the matrix FuzzJobSpec expands: a few hundred bytes of
// JSON can name a cross-product of millions of cells, which is a slow
// input, not a bug.
const fuzzMaxCells = 4096

// FuzzJobSpec decodes arbitrary bytes as a claim response's JobSpec,
// lowers it with FleetSpec and expands its matrix into a one-shard plan,
// twice. No input may panic, and the two expansions must agree: the
// coordinator and every worker expand a job independently and rely on
// getting the same keys.
func FuzzJobSpec(f *testing.F) {
	seed, err := json.Marshal(testJob())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"platforms":["nexus5"],"policies":["mobicore"],"seeds":[1],"duration_ns":1000000,"workloads":[{"kind":"busyloop","util":0.5,"threads":1000000000}]}`))
	f.Add([]byte(`{"platforms":["nexus6p","Nexus 5"],"policies":["android-default","mobicore+eas"],"placers":["greedy","eas"],"seeds":[7,7,-1],"duration_ns":5000000,"tick_ns":2000000,"workloads":[{"kind":"game","game":"Subway Surf"},{"kind":"geekbench","threads":2,"iterations":3}]}`))
	f.Add([]byte(`{"platforms":[],"policies":null,"duration_ns":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var job JobSpec
		if json.Unmarshal(data, &job) != nil {
			return
		}
		cells := max(len(job.Placers), 1) * max(len(job.Seeds), 1)
		for _, n := range []int{len(job.Platforms), len(job.Policies), len(job.Workloads)} {
			if cells *= n; cells > fuzzMaxCells {
				return
			}
		}
		expand := func() ([]shard.Manifest, error) {
			spec, err := job.FleetSpec()
			if err != nil {
				return nil, err
			}
			return spec.ShardPlan(1)
		}
		planA, errA := expand()
		planB, errB := expand()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("expansions disagree: %v vs %v", errA, errB)
		}
		if !reflect.DeepEqual(planA, planB) {
			t.Fatalf("expansions give different plans:\n%+v\n%+v", planA, planB)
		}
	})
}
