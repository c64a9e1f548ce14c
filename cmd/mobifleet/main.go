// Command mobifleet runs an ad-hoc simulation matrix — the cross-product
// of platforms × policies × placement rules × seeds — on the parallel
// batch driver and prints every cell plus cross-seed aggregate statistics:
//
//	mobifleet -platforms nexus5,nexus6p -policies mobicore,android-default -seeds 5 -dur 30s
//	mobifleet -platforms all -policies mobicore -workload game -game "Subway Surf" -dur 1m
//	mobifleet -platforms nexus6p,sd855 -policies schedutil+load -scheds greedy,eas -dur 30s
//	mobifleet -seeds 8 -parallel 4 -json -dur 10s
//
// Scenario workloads (see cmd/mobitrace for the trace generator):
//
//	mobifleet -workload scenario -scenario dayinlife -seeds 20 -dur 1m
//	mobifleet -policies pin-max+mpdecision,ondemand+offline -trace traces/dayinlife-s17.jsonl -dur 1m
//	mobifleet -trace-dir traces/ -store out/ -dur 1m
//
// -workload scenario walks the profile live off each cell's session rng, so
// the seed axis fans out into distinct synthetic users; -trace / -trace-dir
// replay recorded JSONL traces instead (one workload column per trace),
// which is how a fleet sweep of thousands of users stays exactly
// reproducible cell by cell.
//
// The matrix flags (-platforms -policies -scheds -seeds -seed -dur
// -workload -util -threads -game -iterations -scenario) come from
// internal/fleet/study, which registers the same set for mobifleetd: the
// same flags name the same cells and store keys in both commands.
//
// -seeds N runs every cell at N consecutive seeds starting from -seed;
// the report aggregates mean/stddev/min/max/p50/p95 — plus the mean's 95%
// confidence interval — of energy, FPS, drop rate, and throttle residency
// across them, and appends paired matched-seed deltas (policy vs policy,
// placer vs placer) with their own CIs. -parallel bounds the worker pool
// (default GOMAXPROCS); parallelism never changes output, only wall-clock
// time. SIGINT cancels cleanly and reports the cells that finished.
//
// The study pipeline:
//
//	mobifleet -platforms nexus6p -policies all -seeds 100 -dur 30s -store out/
//	mobifleet -platforms nexus6p -policies all -seeds 100 -dur 30s -store out/ -resume -csv out/cells.csv
//
// -store persists every completed cell keyed by a canonical identity hash
// (merged across invocations; once the matrix is complete,
// <store>/cells.jsonl holds it, byte-stable at any parallelism); -resume answers already-stored cells from the store and
// executes only the missing ones — a fully-cached matrix executes zero
// sessions and reproduces the cold run's CSV byte for byte. -traces adds
// per-cell gzip JSONL power traces under <store>/traces. -csv exports the
// per-cell rows ("-" for stdout).
//
// -json emits the fleet result as one JSON document (cells in matrix
// order, then aggregates and paired comparisons).
//
// Store tooling (no cells execute for any of these):
//
//	mobifleet -shard 0/2 ... -store a/   # run only shard 0 of 2
//	mobifleet -report out/               # render a store's aggregates
//	mobifleet -merge dst/ src1/ src2/    # merge shard stores, refusing conflicts
//	mobifleet -diff old/ new/            # paired B-A deltas with 95% CIs
//	mobifleet -diff -gate 1 old/ new/    # exit 3 if energy moved >1% with CI excluding zero
//
// -shard i/n partitions the matrix keyspace into n contiguous ranges and
// runs only range i — disjoint shards merged with -merge are byte-identical
// to the unsharded store. -report rebuilds the full text report (or -json,
// -csv) straight from a store. -diff pairs two stores cell-by-cell; with
// -gate it becomes a CI perf-regression gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"mobicore"
	"mobicore/internal/fleet"
	"mobicore/internal/fleet/study"
	"mobicore/internal/natsort"
	"mobicore/internal/profile"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		traceFile = flag.String("trace", "", "replay one recorded scenario trace (JSONL) as the workload")
		traceDir  = flag.String("trace-dir", "", "replay every *.jsonl scenario trace in this directory, one workload column per trace")
		asJSON    = flag.Bool("json", false, "emit the fleet result as a JSON document")
		list      = flag.Bool("list", false, "list platforms, policies, scheds, and games")
		storeDir  = flag.String("store", "", "persistent result store directory (JSONL per cell, merged across runs)")
		resume    = flag.Bool("resume", false, "load cached cells from -store and execute only the missing ones")
		traces    = flag.Bool("traces", false, "export per-cell power traces (gzip JSONL) under <store>/traces")
		csvPath   = flag.String("csv", "", "write per-cell results as CSV to this path (\"-\" for stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf   = flag.String("memprofile", "", "write an allocs heap profile to this path on exit")
		shardSpec = flag.String("shard", "", "run only key-range shard i of n, as \"i/n\" (0-based)")
		report    = flag.String("report", "", "render the report from this result store, executing nothing")
		diff      = flag.Bool("diff", false, "diff two stores given as positional args: -diff [-gate pct] storeA storeB")
		gate      = flag.Float64("gate", 0, "with -diff: exit 3 when energy moved more than this percent with a CI excluding zero")
		merge     = flag.Bool("merge", false, "merge stores given as positional args: -merge dst src...")
	)
	matrix := study.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := profile.Start(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobifleet:", err)
		return 1
	}
	defer stopProf()
	defer func() {
		if err := profile.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
		}
	}()

	if *list {
		fmt.Println("platforms: ", mobicore.Platforms())
		fmt.Println("policies:  ", mobicore.Policies(), `plus "<governor>+<hotplug>"; "all" =`, study.AllPolicies())
		fmt.Println("hotplugs:  ", mobicore.Hotplugs())
		fmt.Println("scheds:    ", mobicore.Scheds())
		fmt.Println("games:     ", mobicore.GameNames())
		fmt.Println("scenarios: ", mobicore.ScenarioProfiles())
		return 0
	}

	// Store tooling: report, diff, and merge work entirely from persisted
	// results — no cell ever executes on these paths.
	if *merge {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "mobifleet: -merge needs a destination and at least one source store")
			return 1
		}
		added, err := mobicore.MergeFleetStores(flag.Arg(0), flag.Args()[1:]...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
		fmt.Printf("mobifleet: merged %d new records into %s\n", added, flag.Arg(0))
		return 0
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mobifleet: -diff needs exactly two store directories")
			return 1
		}
		d, err := mobicore.DiffFleetStores(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(d); err != nil {
				fmt.Fprintln(os.Stderr, "mobifleet:", err)
				return 1
			}
		} else if err := d.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
		if *gate > 0 {
			if regs := d.Regressions(*gate / 100); len(regs) > 0 {
				for _, g := range regs {
					fmt.Fprintf(os.Stderr, "mobifleet: gate: %s / %s / %s / %s energy moved %+.2f%% (ci95 excludes zero)\n",
						g.Platform, g.Policy, g.Workload, g.Placer, g.EnergyJ.Rel*100)
				}
				return 3
			}
		}
		return 0
	}
	if *report != "" {
		res, err := mobicore.LoadFleetResult(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fmt.Fprintln(os.Stderr, "mobifleet:", err)
				return 1
			}
		} else if err := res.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
		if *csvPath != "" {
			if err := writeCSV(res, *csvPath); err != nil {
				fmt.Fprintln(os.Stderr, "mobifleet:", err)
				return 1
			}
		}
		return 0
	}

	job, err := matrix.Job()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobifleet:", err)
		return 1
	}
	spec, err := job.FleetSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobifleet:", err)
		return 1
	}
	if spec.Workloads, err = replayColumns(spec.Workloads, *traceFile, *traceDir); err != nil {
		fmt.Fprintln(os.Stderr, "mobifleet:", err)
		return 1
	}
	spec.Parallel, spec.StoreDir, spec.Resume = *parallel, *storeDir, *resume
	if *traces {
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "mobifleet: -traces requires -store")
			return 1
		}
		spec.TraceDir = filepath.Join(*storeDir, "traces")
	}
	if *shardSpec != "" {
		if spec.ShardIndex, spec.ShardCount, err = parseShard(*shardSpec); err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := fleet.Run(ctx, spec)
	canceled := errors.Is(err, context.Canceled)
	if err != nil && !canceled {
		fmt.Fprintln(os.Stderr, "mobifleet:", err)
		return 1
	}
	if canceled {
		fmt.Fprintf(os.Stderr, "mobifleet: interrupted — %d of %d cells completed\n",
			len(res.Cells), res.Total)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
	} else if err := res.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobifleet:", err)
		return 1
	}
	if *csvPath != "" {
		if err := writeCSV(res, *csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "mobifleet:", err)
			return 1
		}
	}
	if canceled {
		return 130
	}
	return 0
}

// writeCSV exports the per-cell results to a file, or stdout for "-".
func writeCSV(res *mobicore.FleetResult, path string) error {
	if path == "-" {
		return res.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayColumns swaps the workload column for recorded-trace replays
// (one column per trace) when -trace or -trace-dir is set.
func replayColumns(wls []fleet.WorkloadFactory, traceFile, traceDir string) ([]fleet.WorkloadFactory, error) {
	if traceDir != "" {
		entries, err := os.ReadDir(traceDir)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
				names = append(names, e.Name())
			}
		}
		natsort.Strings(names)
		out := make([]fleet.WorkloadFactory, 0, len(names))
		for _, n := range names {
			wl, err := traceFactory(filepath.Join(traceDir, n))
			if err != nil {
				return nil, err
			}
			out = append(out, wl)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("no *.jsonl scenario traces in %s", traceDir)
		}
		return out, nil
	}
	if traceFile != "" {
		wl, err := traceFactory(traceFile)
		if err != nil {
			return nil, err
		}
		return []fleet.WorkloadFactory{wl}, nil
	}
	return wls, nil
}

// traceFactory builds a replay workload column from one recorded scenario
// trace. The file's base name labels the column, so a directory of
// per-seed exports ("dayinlife-s17.jsonl") keeps every cell distinct.
func traceFactory(path string) (mobicore.FleetWorkload, error) {
	f, err := os.Open(path)
	if err != nil {
		return mobicore.FleetWorkload{}, err
	}
	tr, err := mobicore.ReadScenarioTrace(f)
	f.Close()
	if err != nil {
		return mobicore.FleetWorkload{}, fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), ".jsonl")
	return mobicore.NewFleetWorkload(name, func() ([]mobicore.Workload, error) {
		w, err := mobicore.NewScenarioReplay(tr)
		if err != nil {
			return nil, err
		}
		return []mobicore.Workload{w}, nil
	}), nil
}

// parseShard parses "-shard i/n" into a 0-based index and a shard count.
func parseShard(s string) (idx, count int, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard wants \"i/n\" (e.g. 0/4), got %q", s)
	}
	idx, errI := strconv.Atoi(s[:i])
	count, errN := strconv.Atoi(s[i+1:])
	if errI != nil || errN != nil || count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("-shard wants \"i/n\" with 0 <= i < n, got %q", s)
	}
	return idx, count, nil
}
