package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program in
// step: the same workloads, and the same metrics with the same units, in
// the same order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		name string
		file []entry
		defs []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(set.file) != len(set.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", set.name, len(set.file), len(set.defs))
		}
		for i, d := range set.defs {
			if set.file[i] != (entry{d.name, d.unit}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s", set.name, i, set.file[i], d.name, d.unit)
			}
		}
	}
}
