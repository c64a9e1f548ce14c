package fleet

import (
	"errors"
	"fmt"
	"sort"

	"mobicore/internal/fleet/store"
	"mobicore/internal/natsort"
)

// identityLess orders cell identities canonically: platform, policy,
// workload, and placer naturally sorted (nexus5 before nexus6p, seed2
// before seed10 semantics for embedded numbers), then seed numerically,
// then the engine shape fields. This is exactly the spec nesting order of
// a run whose dimension lists were themselves sorted — which is how the
// CLI's "all" expansion and the CI smokes spell their specs — so a
// store-backed report reproduces such a run's cell order byte for byte.
func identityLess(a, b store.Identity) bool {
	for _, c := range []struct{ a, b string }{
		{a.Platform, b.Platform},
		{a.Policy, b.Policy},
		{a.Workload, b.Workload},
		{a.Placer, b.Placer},
	} {
		if c.a != c.b {
			return natsort.Less(c.a, c.b)
		}
	}
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	if a.DurationNS != b.DurationNS {
		return a.DurationNS < b.DurationNS
	}
	if a.UntilDone != b.UntilDone {
		return !a.UntilDone
	}
	if a.TickNS != b.TickNS {
		return a.TickNS < b.TickNS
	}
	return a.SampleNS < b.SampleNS
}

// FromRecords rebuilds a fleet Result straight from persisted store
// records — aggregates, paired comparisons, text, CSV, and JSON rendering
// with zero cells executed. Every cell comes back Cached with a condensed
// report, ordered canonically (see identityLess).
func FromRecords(recs []store.Record) *Result {
	sorted := append([]store.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return identityLess(sorted[i].Identity, sorted[j].Identity) })
	out := &Result{Total: len(sorted), Cached: len(sorted)}
	for i, rec := range sorted {
		out.Cells = append(out.Cells, *cellFromRecord(i, rec))
	}
	out.Aggregates = aggregate(out.Cells)
	out.Comparisons = compare(out.Cells)
	return out
}

// LoadStoreResult opens a result store directory and rebuilds its fleet
// Result — the zero-re-run reporting path: any store filled by any mix of
// serial, parallel, sharded, or distributed runs renders its aggregates
// and comparisons without executing a single session.
func LoadStoreResult(dir string) (*Result, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	recs := st.Records()
	if err := st.Close(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("fleet: store %s holds no records", dir)
	}
	return FromRecords(recs), nil
}

// MergeStores is store.Merge re-exported at the driver level: combine
// disjoint shard stores into one, refusing conflicting records for the
// same key. Returns the number of records new to dst.
func MergeStores(dst string, srcs ...string) (int, error) {
	if dst == "" {
		return 0, errors.New("fleet: merge needs a destination store")
	}
	return store.Merge(dst, srcs...)
}
