package main

import (
	"fmt"
	"path/filepath"

	"mobicore/internal/fleet"
	"mobicore/internal/sim"
)

// check records one correctness check, spanning the time since the
// previous one; a failed check counts in the run's failed operations.
func (e *env) check(name string, err error) {
	now := e.tr.now()
	e.tr.add("check."+name, 0, e.checkFrom, now)
	e.checkFrom = now
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(e.log, "check %-22s FAIL: %v\n", name, err)
		return
	}
	fmt.Fprintf(e.log, "check %-22s ok\n", name)
}

// checks verifies the run's outputs:
//   - the first digestCells cells replayed as standalone sessions give
//     identical reports fused, without the fast path, and traced;
//   - a sliceCells-cell slice of the matrix run through fleet.Run gives
//     identical stores (and traces) at Parallel 1 and Parallel nproc;
//   - for fleet workloads, the slice's records equal the pass's records for
//     the same cells;
//   - the output digest (session reports, or the pass's store and traces)
//     matches bench/testdata/digests.json when that file records the seed.
func (e *env) checks(cells []fleet.Cell, passDir string) {
	e.checkFrom = e.tr.now()
	base, err := e.replay(cells, func(sp sim.SessionSpec) (*sim.Report, error) { return sp.Run(e.ctx) })
	e.check("sessions", err)
	if err != nil {
		return
	}
	nofuse, err := e.replay(cells, func(sp sim.SessionSpec) (*sim.Report, error) {
		sp.NoFuse = true
		return sp.Run(e.ctx)
	})
	e.check("fused==nofuse", firstErr(err, sameDigest(reportsDigest(base), reportsDigest(nofuse))))
	var scratch tickLayers
	traced, err := e.replay(cells, func(sp sim.SessionSpec) (*sim.Report, error) {
		return traceSession(e, sp, &scratch, 0)
	})
	e.check("traced==untraced", firstErr(err, sameDigest(reportsDigest(base), reportsDigest(traced))))

	slice := fleet.Spec{ExtraCells: cells[:min(sliceCells, len(cells))]}
	dirN := filepath.Join(e.work, "slice-parallel-n")
	digestN, err := e.runSlice(slice, e.nproc, dirN)
	if err == nil {
		var digest1 string
		digest1, err = e.runSlice(slice, 1, filepath.Join(e.work, "slice-parallel-1"))
		err = firstErr(err, sameDigest(digestN, digest1))
	}
	e.check("parallel1==parallelN", err)

	digest := reportsDigest(base)
	if e.def.fleet {
		e.check("slice==pass", sameRecords(filepath.Join(dirN, "store"), filepath.Join(passDir, "store")))
		traceDir := ""
		if e.def.traces {
			traceDir = filepath.Join(passDir, "traces")
		}
		digest, err = storeDigest(filepath.Join(passDir, "store"), traceDir)
		if err != nil {
			e.check("digest", err)
			return
		}
	}
	fmt.Fprintf(e.log, "digest %s seed %d: %s\n", e.def.name, e.seed, digest)
	want, ok, err := expectedDigest(filepath.Join(benchDir, "testdata", "digests.json"), e.def.name, e.seed)
	switch {
	case err != nil:
		e.check("digest", err)
	case ok:
		e.check("digest", sameDigest(want, digest))
	default:
		fmt.Fprintf(e.log, "check %-22s skipped: no recorded digest for seed %d\n", "digest", e.seed)
	}
}

// replay runs the first digestCells cells as standalone sessions through
// run and returns their reports in order.
func (e *env) replay(cells []fleet.Cell, run func(sim.SessionSpec) (*sim.Report, error)) ([]*sim.Report, error) {
	var reps []*sim.Report
	for _, c := range cells[:min(digestCells, len(cells))] {
		sp, err := sessionOf(c)
		if err != nil {
			return nil, err
		}
		rep, err := run(sp)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// runSlice runs a matrix slice through fleet.Run at the given parallelism
// into a fresh store under dir (with traces when the workload exports
// them) and returns its digest.
func (e *env) runSlice(spec fleet.Spec, parallel int, dir string) (string, error) {
	spec.Parallel = parallel
	spec.StoreDir = filepath.Join(dir, "store")
	if e.def.traces {
		spec.TraceDir = filepath.Join(dir, "traces")
	}
	if _, err := fleet.Run(e.ctx, spec); err != nil {
		return "", err
	}
	return storeDigest(spec.StoreDir, spec.TraceDir)
}

func sameDigest(want, got string) error {
	if want != got {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

// sameRecords checks that every record of the store in sub is present,
// identical, in the store in full.
func sameRecords(sub, full string) error {
	a, err := storeRecords(sub)
	if err != nil {
		return err
	}
	b, err := storeRecords(full)
	if err != nil {
		return err
	}
	byKey := make(map[string]int, len(b))
	for i, r := range b {
		byKey[r.Key] = i
	}
	for _, r := range a {
		i, ok := byKey[r.Key]
		if !ok {
			return fmt.Errorf("record %s missing from the pass store", r.Key)
		}
		if b[i] != r {
			return fmt.Errorf("record %s differs between slice and pass", r.Key)
		}
	}
	return nil
}
