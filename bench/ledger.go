package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"mobicore/internal/metrics"
)

// A ledger is a file of benchmark runs on one host: its header names the
// host, Runs holds every run's result line, and Summary condenses each
// workload's metric across its correct runs. bench/results/baseline.json
// is one; -compare reads two.
type ledger struct {
	Host    host                            `json:"host"`
	Runs    []ledgerRun                     `json:"runs"`
	Summary map[string]map[string]statEntry `json:"summary"`
}

type host struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type ledgerRun struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Result   result  `json:"result"`
}

// statEntry is one metric's distribution over a workload's runs.
type statEntry struct {
	Unit    string     `json:"unit"`
	Samples []float64  `json:"samples"`
	Median  float64    `json:"median"`
	Q1      float64    `json:"q1"`
	Q3      float64    `json:"q3"`
	MeanCI  metrics.CI `json:"mean_ci95"`
	BootCI  metrics.CI `json:"bootstrap_ci95"`
	Spread  float64    `json:"iqr_over_median"`
}

func thisHost() host {
	return host{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// recordLedger runs each workload runs times in each trace mode, one child
// process per run (so each run's peak RSS is its own), and adds the runs to
// the ledger at path, creating it if needed. Runs rotate through the
// workloads so a slow phase of the host spreads across all of them.
func recordLedger(path string, defs []workloadDef, modes []int, runs int, seed int64, seconds float64, log io.Writer) error {
	l, err := readLedger(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		l = &ledger{Host: thisHost()}
	case err != nil:
		return err
	case l.Host != thisHost():
		return fmt.Errorf("%s was recorded on another host (%+v); start a new ledger", path, l.Host)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for r := range runs {
		for _, w := range defs {
			for _, trace := range modes {
				fmt.Fprintf(log, "record: run %d/%d %s trace %d\n", r+1, runs, w.name, trace)
				res, err := runChild(exe, w.name, seed, seconds, trace, log)
				if err != nil {
					return err
				}
				if !res.Correct {
					failed++
				}
				l.Runs = append(l.Runs, ledgerRun{Workload: w.name, Trace: trace, Seed: seed, Seconds: seconds, Result: *res})
			}
		}
	}
	l.Summary = summarize(l.Runs)
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d runs reported incorrect output", failed)
	}
	return nil
}

// runChild runs one benchmark run in a child process and parses its result
// line. The child's human-readable output goes to log.
func runChild(exe, workload string, seed int64, seconds float64, trace int, log io.Writer) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stdout = io.MultiWriter(&out, log)
	cmd.Stderr = log
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s trace %d: no result line (%v)", workload, trace, firstErr(runErr, err))
	}
	return &res, nil
}

// summarize condenses every workload's metrics over its correct runs.
func summarize(runs []ledgerRun) map[string]map[string]statEntry {
	samples := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if !r.Result.Correct {
			continue
		}
		if samples[r.Workload] == nil {
			samples[r.Workload] = map[string][]float64{}
		}
		for _, name := range sortedKeys(r.Result.Metrics) {
			m := r.Result.Metrics[name]
			samples[r.Workload][name] = append(samples[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]statEntry{}
	for w, byMetric := range samples {
		out[w] = map[string]statEntry{}
		for name, vs := range byMetric {
			q1, q2, q3 := quartiles(vs)
			mean, _ := metrics.MeanCI(vs, 0.95)
			boot, _ := metrics.BootstrapMeanCI(vs, 0.95, 0, 1)
			out[w][name] = statEntry{
				Unit: units[name], Samples: vs, Median: q2, Q1: q1, Q3: q3,
				MeanCI: mean, BootCI: boot, Spread: spread(vs),
			}
		}
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest alternated parent/change run pairs a comparison
// accepts.
const minPairs = 10

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	Pairs, Wins    int
	Parent, Change [3]float64 // q1, median, q3
	Spread         float64    // the wider side's IQR / median
	Outcome        string
}

// judge applies the benchmark's comparison rule to matched run samples:
// parent[i] and change[i] are one alternated pair. A gain needs at least
// minPairs pairs, a win in at least nine tenths of them (ties count for
// neither), and a median gap larger than the parent's interquartile range.
// Otherwise a median worse than the parent's by more than the bound is a
// regression — but where either side's spread exceeds the bound the metric
// is unresolved, unless every change run beats every parent run (no worse)
// or loses to every one of them (a regression all the same).
func judge(parent, change []float64, higherBetter bool, bound float64) verdict {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	n := min(len(parent), len(change))
	v := verdict{Pairs: n, Spread: math.Max(spread(parent), spread(change))}
	v.Parent[0], v.Parent[1], v.Parent[2] = quartiles(parent)
	v.Change[0], v.Change[1], v.Change[2] = quartiles(change)
	for i := range n {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	pm, cm := v.Parent[1], v.Change[1]
	worseBy := (pm - cm) / math.Abs(pm)
	if !higherBetter {
		worseBy = -worseBy
	}
	regressed := worseBy > bound
	worse := func(a, b float64) bool { return better(b, a) }
	switch {
	case n < minPairs:
		v.Outcome = "too few pairs"
	case better(cm, pm) && v.Wins*10 >= 9*n && math.Abs(cm-pm) > v.Parent[2]-v.Parent[0]:
		v.Outcome = "gain"
	case v.Spread > bound && separated(change, parent, better):
		v.Outcome = "within bound"
	case v.Spread > bound && !(regressed && separated(change, parent, worse)):
		v.Outcome = "unresolved"
	case regressed:
		v.Outcome = "regression"
	default:
		v.Outcome = "within bound"
	}
	return v
}

// separated reports whether every change run compares cmp to every parent
// run.
func separated(change, parent []float64, cmp func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !cmp(c, p) {
				return false
			}
		}
	}
	return true
}

// compareLedgers prints one row per workload and end-to-end metric and
// exits 3 when any metric regressed.
func compareLedgers(parentPath, changePath, benchPath string, stdout, stderr io.Writer) int {
	parent, change, bf, err := loadComparison(parentPath, changePath, benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return printComparison(parent, change, bf, stdout)
}

func loadComparison(parentPath, changePath, benchPath string) (parent, change *ledger, bf benchmarkFile, err error) {
	if parent, err = readLedger(parentPath); err != nil {
		return
	}
	if change, err = readLedger(changePath); err != nil {
		return
	}
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return
	}
	if err = json.Unmarshal(b, &bf); err != nil {
		err = fmt.Errorf("%s: %w", benchPath, err)
	}
	return
}

func printComparison(parent, change *ledger, bf benchmarkFile, w io.Writer) int {
	if parent.Host != change.Host {
		fmt.Fprintf(w, "warning: the ledgers come from different hosts\n  parent %+v\n  change %+v\n", parent.Host, change.Host)
	}
	fmt.Fprintf(w, "%-20s %-20s %-30s %-30s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			p, c := runValues(parent, wl.name, m.Name), runValues(change, wl.name, m.Name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			v := judge(p, c, m.Better == "higher", m.Bound)
			if v.Outcome == "regression" {
				code = 3
			}
			fmt.Fprintf(w, "%-20s %-20s %-30s %-30s %3d/%-2d  %s\n", wl.name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.Parent[1], v.Parent[0], v.Parent[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.Change[1], v.Change[0], v.Change[2]),
				v.Wins, v.Pairs, v.Outcome)
		}
	}
	return code
}

// runValues lists a metric's values over a ledger's correct end-to-end
// runs of one workload, in recorded order.
func runValues(l *ledger, workload, name string) []float64 {
	var vs []float64
	for _, r := range l.Runs {
		if r.Workload != workload || r.Trace != 0 || !r.Result.Correct {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}
