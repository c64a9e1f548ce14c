package study

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// lower registers the matrix flags on a fresh flag set, parses args and
// lowers the study they name, as both fleet commands do.
func lower(args ...string) (JobSpec, error) {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		return JobSpec{}, err
	}
	job, err := f.Job()
	if err != nil {
		return JobSpec{}, err
	}
	_, err = job.FleetSpec()
	return job, err
}

func TestRegisterDefaults(t *testing.T) {
	job, err := lower()
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		Platforms:  []string{"nexus5"},
		Policies:   []string{"android-default"},
		Placers:    []string{"greedy"},
		Seeds:      []int64{1},
		Workloads:  []WorkloadSpec{{Kind: "busyloop", Util: 0.5, Threads: 4}},
		DurationNS: 30e9,
	}
	if !reflect.DeepEqual(job, want) {
		t.Errorf("defaults lower to %+v, want %+v", job, want)
	}
}

func TestRegisterAll(t *testing.T) {
	job, err := lower("-platforms", "all", "-policies", "all", "-scheds", "all", "-seeds", "3", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{
		"android-default", "conservative+load", "interactive+load", "mobicore",
		"mobicore-threshold", "ondemand+offline", "oracle", "pin-max+mpdecision", "schedutil+load",
	}; !reflect.DeepEqual(job.Policies, want) {
		t.Errorf("-policies all = %q, want %q", job.Policies, want)
	}
	if want := []string{
		"galaxy-s2", "lg-g3", "mb810", "nexus-s", "nexus4", "nexus5", "nexus6p", "sd855",
	}; !reflect.DeepEqual(job.Platforms, want) {
		t.Errorf("-platforms all = %q, want %q", job.Platforms, want)
	}
	if want := []string{"eas", "greedy"}; !reflect.DeepEqual(job.Placers, want) {
		t.Errorf("-scheds all = %q, want %q", job.Placers, want)
	}
	if want := []int64{7, 8, 9}; !reflect.DeepEqual(job.Seeds, want) {
		t.Errorf("-seeds 3 -seed 7 = %v, want %v", job.Seeds, want)
	}
}

func TestRegisterWorkloads(t *testing.T) {
	for _, c := range []struct {
		args []string
		want WorkloadSpec
	}{
		{[]string{"-workload", "scenario", "-scenario", "dayinlife"}, WorkloadSpec{Kind: "scenario", Scenario: "dayinlife"}},
		{[]string{"-workload", "game", "-game", "Badland"}, WorkloadSpec{Kind: "game", Game: "Badland"}},
		{[]string{"-workload", "geekbench", "-threads", "2", "-iterations", "1"}, WorkloadSpec{Kind: "geekbench", Threads: 2, Iterations: 1}},
		{[]string{"-util", "0.29", "-threads", "1"}, WorkloadSpec{Kind: "busyloop", Util: 0.29, Threads: 1}},
	} {
		job, err := lower(c.args...)
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(job.Workloads, []WorkloadSpec{c.want}) {
			t.Errorf("%q lowers to %+v, want %+v", c.args, job.Workloads, c.want)
		}
	}
}

func TestRegisterRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-seeds", "0"}, "-seeds"},
		{[]string{"-seeds", "-1"}, "-seeds"},
		{[]string{"-workload", "sleep"}, "unknown workload"},
		{[]string{"-util", "0.504"}, "whole percent"},
		{[]string{"-workload", "scenario", "-scenario", "commute"}, "unknown profile"},
		{[]string{"-policies", "winning"}, "winning"},
		{[]string{"-platforms", "nokia3310"}, "nokia3310"},
	} {
		_, err := lower(c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}
