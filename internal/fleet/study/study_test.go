package study

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"mobicore/internal/fleet/shard"
)

// testJob is a small valid study: 2 policies × 3 seeds on a Nexus 5.
func testJob() JobSpec {
	return JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default", "mobicore"},
		Seeds:      []int64{1, 2, 3},
		Workloads:  []WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}},
		DurationNS: int64(100 * time.Millisecond),
	}
}

// key lowers a one-workload job and returns its first cell's identity key.
func key(t *testing.T, ws WorkloadSpec) (string, error) {
	t.Helper()
	job := testJob()
	job.Workloads = []WorkloadSpec{ws}
	spec, err := job.FleetSpec()
	if err != nil {
		return "", err
	}
	keys, err := spec.Keys()
	if err != nil {
		t.Fatal(err)
	}
	return keys[0], nil
}

// TestIdentityNamesEncodeParameters: every parameter that changes a
// workload's physics changes its identity key, a busyloop util the name
// cannot spell is refused, and the names existing stores hold are kept.
func TestIdentityNamesEncodeParameters(t *testing.T) {
	k1, err1 := key(t, WorkloadSpec{Kind: "geekbench", Threads: 2, Iterations: 1})
	k3, err3 := key(t, WorkloadSpec{Kind: "geekbench", Threads: 2, Iterations: 3})
	if err1 != nil || err3 != nil {
		t.Fatal(err1, err3)
	}
	if k1 == k3 {
		t.Error("geekbench runs of 1 and 3 iterations share an identity key")
	}
	for _, u := range []float64{0.504, 0.496, 0.5001} {
		if _, err := key(t, WorkloadSpec{Kind: "busyloop", Util: u, Threads: 4}); err == nil {
			t.Errorf("busyloop util %v accepted; its name would round to a whole percent", u)
		}
	}
	for _, c := range []struct {
		ws   WorkloadSpec
		want string
	}{
		{WorkloadSpec{Kind: "busyloop", Util: 0.5, Threads: 4}, "busyloop-50%x4"},
		{WorkloadSpec{Kind: "busyloop", Util: 0.29, Threads: 1}, "busyloop-29%x1"},
		{WorkloadSpec{Kind: "busyloop", Util: 1, Threads: maxThreads}, "busyloop-100%x1024"},
		{WorkloadSpec{Kind: "game", Game: "Subway Surf"}, "Subway Surf"},
		{WorkloadSpec{Kind: "game", Game: "Angry Birds"}, "Angry Birds"},
		{WorkloadSpec{Kind: "scenario", Scenario: "dayinlife"}, "scenario-dayinlife"},
		{WorkloadSpec{Kind: "scenario", Scenario: "standby"}, "scenario-standby"},
		{WorkloadSpec{Kind: "geekbench", Threads: 2, Iterations: 3}, "geekbench-x2-i3"},
		{WorkloadSpec{Kind: "geekbench", Threads: 4, Iterations: 1}, "geekbench-x4-i1"},
	} {
		ws, want := c.ws, c.want
		wf, err := ws.factory()
		if err != nil {
			t.Errorf("%+v: %v", ws, err)
			continue
		}
		if wf.Name != want {
			t.Errorf("%+v named %q, want %q", ws, wf.Name, want)
		}
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
	f.Add([]byte(`{"platforms":["nexus5","sd855"],"policies":["mobicore","ondemand+offline"],"seeds":[1,2],"duration_ns":2000000,"workloads":[{"kind":"scenario","scenario":"dayinlife"},{"kind":"scenario","scenario":"standby"}]}`))
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
		plan := func() ([]shard.Manifest, error) {
			spec, err := job.FleetSpec()
			if err != nil {
				return nil, err
			}
			return spec.ShardPlan(1)
		}
		planA, errA := plan()
		planB, errB := plan()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("expansions disagree: %v vs %v", errA, errB)
		}
		if !reflect.DeepEqual(planA, planB) {
			t.Fatalf("expansions give different plans:\n%+v\n%+v", planA, planB)
		}
	})
}
