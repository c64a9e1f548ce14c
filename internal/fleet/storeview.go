package fleet

import (
	"errors"
	"fmt"
	"sort"

	"mobicore/internal/fleet/store"
	"mobicore/internal/natsort"
	"mobicore/internal/sim"
)

// identityLess orders cell identities canonically: platform, policy,
// workload, and placer naturally sorted (nexus5 before nexus6p, seed2
// before seed10 semantics for embedded numbers), then seed numerically,
// then the engine shape fields. This is exactly the spec nesting order of
// a run whose dimension lists were themselves sorted — which is how the
// CLI's "all" expansion and the CI smokes spell their specs — so a
// store-backed report reproduces such a run's cell order byte for byte.
func identityLess(a, b store.Identity) bool {
	if c := compareGroups(groupOf(a), groupOf(b)); c != 0 {
		return c < 0
	}
	return shapeLess(a, b)
}

// groupKey is a cell's matrix coordinates without the seed: the
// aggregate group it lands in, and the prefix identityLess sorts first.
type groupKey struct {
	Platform, Policy, Workload, Placer string
}

func groupOf(id store.Identity) groupKey {
	return groupKey{id.Platform, id.Policy, id.Workload, id.Placer}
}

// compareGroups orders groups by their first differing name, naturally;
// names natural order cannot tell apart ("a01", "a1") order bytewise.
func compareGroups(a, b groupKey) int {
	for _, c := range [...]struct{ a, b string }{
		{a.Platform, b.Platform},
		{a.Policy, b.Policy},
		{a.Workload, b.Workload},
		{a.Placer, b.Placer},
	} {
		switch {
		case c.a == c.b:
			continue
		case natsort.Less(c.a, c.b):
			return -1
		case natsort.Less(c.b, c.a):
			return 1
		case c.a < c.b:
			return -1
		}
		return 1
	}
	return 0
}

// shapeLess orders identities of one group: seed numerically, then the
// engine shape fields.
func shapeLess(a, b store.Identity) bool {
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

// identityOrder returns the indices of recs in identityLess order, equal
// identities in input order. It ranks the distinct groups once, so the
// sort over every record compares two ints where identityLess would
// compare names.
func identityOrder(recs []store.Record) []int {
	rankOf := map[groupKey]int{}
	var groups []groupKey
	group := make([]int, len(recs))
	for i := range recs {
		g := groupOf(recs[i].Identity)
		r, ok := rankOf[g]
		if !ok {
			r = len(groups)
			rankOf[g] = r
			groups = append(groups, g)
		}
		group[i] = r
	}
	byName := make([]int, len(groups))
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(i, j int) bool { return compareGroups(groups[byName[i]], groups[byName[j]]) < 0 })
	rank := make([]int, len(groups))
	for r, g := range byName {
		rank[g] = r
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		switch ra, rb := rank[group[a]], rank[group[b]]; {
		case ra != rb:
			return ra < rb
		case shapeLess(recs[a].Identity, recs[b].Identity):
			return true
		case shapeLess(recs[b].Identity, recs[a].Identity):
			return false
		}
		return a < b
	})
	return order
}

// FromRecords rebuilds a fleet Result straight from persisted store
// records — aggregates, paired comparisons, text, CSV, and JSON rendering
// with zero cells executed. Every cell comes back Cached with a condensed
// report, ordered canonically (see identityLess).
func FromRecords(recs []store.Record) *Result {
	out := &Result{Total: len(recs), Cached: len(recs)}
	if len(recs) > 0 { // no records leave Cells nil, which JSON renders as null
		out.Cells = make([]CellResult, len(recs))
	}
	reports := make([]sim.Report, len(recs))
	for i, j := range identityOrder(recs) {
		cachedCell(&out.Cells[i], &reports[i], i, &recs[j])
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
	recs, err := store.ReadAll(dir)
	if err != nil {
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
