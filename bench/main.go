// Command bench is the repository's performance ledger: it drives the
// simulator through its package APIs on four fixed workloads, checks that
// every output is correct, and prints each metric by name with its unit,
// ending with one JSON line. With -trace 0 the metrics are the end-to-end
// ones (tracing off); with -trace 1 they are the per-layer ones, each layer
// timed from outside the engine. See README.md for the glossary.
//
// Run from the repository root:
//
//	bash bench/run.sh -workload session-dayinlife -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -record bench/results/baseline.json -runs 3
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// defaultSeed is the seed bench/testdata/digests.json records outputs for.
const defaultSeed = 1

// benchDir is the benchmark's directory, relative to the repository root
// the benchmark runs from: it holds testdata/ and the run outputs in out/.
const benchDir = "bench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: session-dayinlife, session-noisy-eas, fleet-traced-cohort, fleet-store-churn")
		seed    = fs.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds = fs.Float64("seconds", 25, "how long the run measures")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
		record  = fs.String("record", "", "add -runs runs of every workload (or of -workload) in both trace modes (or in -trace) to this ledger file")
		runs    = fs.Int("runs", 3, "with -record: runs per workload and trace mode")
		compare = fs.Bool("compare", false, "compare two ledgers given as arguments: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two ledger files")
			return 2
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	case *record != "":
		defs := workloads
		if *name != "" {
			def, err := workloadByName(*name)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			defs = []workloadDef{def}
		}
		modes := []int{0, 1}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "trace" {
				modes = []int{*trace}
			}
		})
		if err := recordLedger(*record, defs, modes, *runs, *seed, *seconds, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	def, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	res, err := runWorkload(def, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below are the complete
// sets each trace mode reports, on every workload.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim_s/s"},
	{"cells_per_s", "1/s"},
	{"cell_ms_p50", "ms"},
	{"report_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_sim_s", "MB/sim_s"},
}

var perLayer = []metricDef{
	{"workload.tick_ns", "ns"},
	{"sched.window_ns_fast", "ns"},
	{"sched.window_ns_slow", "ns"},
	{"sched.window_ns_nofuse", "ns"},
	{"thermal.tail_ns", "ns"},
	{"sim.step_ns_fast", "ns"},
	{"sim.step_ns_slow", "ns"},
	{"sim.fast_tick_ratio", "ratio"},
	{"sim.fuse_gain_ratio", "ratio"},
	{"sim.ticks", "count"},
	{"sim.sample_ns", "ns"},
	{"sim.session_new_us", "us"},
	{"sim.report_us", "us"},
	{"policy.decide_ns", "ns"},
	{"policy.decides", "count"},
	{"power.system_watts_ns", "ns"},
	{"thermal.network_step_ns", "ns"},
	{"monsoon.observe_ns", "ns"},
	{"fleet.cell_setup_us", "us"},
	{"fleet.cell_ms_p50", "ms"},
	{"fleet.cell_ms_p90", "ms"},
	{"fleet.worker_busy_ratio", "ratio"},
	{"fleet.trace_export_share", "ratio"},
	{"fleet.trace_bytes_per_tick", "bytes"},
	{"fleet.render_ms", "ms"},
	{"store.flush_bytes_total", "bytes"},
	{"store.flush_ms", "ms"},
	{"store.load_ms", "ms"},
	{"setup.compile_ms", "ms"},
	{"setup.inputs_ms", "ms"},
	{"setup.warmup_ms", "ms"},
	{"trace.timer_ns", "ns"},
	{"trace.overhead_pct", "%"},
	{"attribution.residual_pct", "%"},
}

// metricSet checks that vals holds exactly the metrics of defs, each a
// finite number, and attaches their units.
func metricSet(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(vals), len(defs))
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
