package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fakeKeys builds n distinct hex-ish keys in shuffled order.
func fakeKeys(n int, seed int64) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i*2654435761%1000003)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestPlanPartition: every key lands in exactly one shard, sizes balance
// within one cell, and the plan is independent of input order.
func TestPlanPartition(t *testing.T) {
	for _, tc := range []struct{ n, count int }{
		{1, 1}, {7, 3}, {100, 4}, {100, 7}, {5, 5},
	} {
		keys := fakeKeys(tc.n, 1)
		plan, err := Plan(keys, tc.count)
		if err != nil {
			t.Fatalf("Plan(%d, %d): %v", tc.n, tc.count, err)
		}
		if len(plan) != tc.count {
			t.Fatalf("plan has %d shards, want %d", len(plan), tc.count)
		}
		total := 0
		for _, m := range plan {
			owners := 0
			for _, k := range keys {
				if m.Contains(k) {
					owners++
				}
			}
			if owners != m.Cells {
				t.Errorf("shard %d/%d holds %d keys, manifest says %d", m.Index, m.Count, owners, m.Cells)
			}
			if m.Cells < tc.n/tc.count || m.Cells > tc.n/tc.count+1 {
				t.Errorf("shard %d size %d out of balance for %d/%d", m.Index, m.Cells, tc.n, tc.count)
			}
			total += m.Cells
		}
		if total != tc.n {
			t.Errorf("shards cover %d keys, want %d", total, tc.n)
		}
		for _, k := range keys {
			in := 0
			for _, m := range plan {
				if m.Contains(k) {
					in++
				}
			}
			if in != 1 {
				t.Errorf("key %s in %d shards, want exactly 1", k, in)
			}
		}
		// Same keys in a different order produce the identical plan.
		reshuffled := fakeKeys(tc.n, 99)
		plan2, err := Plan(reshuffled, tc.count)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plan {
			if plan[i] != plan2[i] {
				t.Errorf("plan differs across input orders: %+v vs %+v", plan[i], plan2[i])
			}
		}
	}
}

// TestPlanCoversWholeKeyspace: the first shard accepts keys below the
// matrix minimum and the last accepts keys above the maximum, so range
// membership never depends on knowing the exact key set.
func TestPlanCoversWholeKeyspace(t *testing.T) {
	plan, err := Plan(fakeKeys(10, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !plan[0].Contains("") {
		t.Error("first shard rejects the keyspace minimum")
	}
	last := plan[len(plan)-1]
	if !last.Contains(strings.Repeat("f", 32)) {
		t.Error("last shard rejects the keyspace maximum")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(fakeKeys(3, 1), 0); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := Plan(fakeKeys(3, 1), 4); err == nil {
		t.Error("more shards than cells accepted")
	}
	dup := []string{"aa", "bb", "aa"}
	if _, err := Plan(dup, 2); err == nil {
		t.Error("duplicate keys accepted")
	}
}

// TestVerify: a manifest verifies against the matrix it was cut from and
// fails loudly against a different matrix, a tampered range, or a
// malformed position.
func TestVerify(t *testing.T) {
	keys := fakeKeys(20, 1)
	plan, err := Plan(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan {
		if err := m.Verify(keys); err != nil {
			t.Errorf("shard %d fails on its own matrix: %v", m.Index, err)
		}
	}
	other := fakeKeys(21, 1)
	if err := plan[0].Verify(other); err == nil {
		t.Error("manifest verified against a different matrix")
	}
	tampered := plan[1]
	tampered.Hi = "" // grab everything above Lo
	if err := tampered.Verify(keys); err == nil {
		t.Error("tampered range verified")
	}
	bad := plan[1]
	bad.Index = 7
	if err := bad.Verify(keys); err == nil {
		t.Error("malformed index verified")
	}
}

// TestSpecHashOrderIndependent locks the hash to the key set, not the
// ordering.
func TestSpecHashOrderIndependent(t *testing.T) {
	keys := fakeKeys(50, 1)
	h1 := SpecHash(keys)
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	if h2 := SpecHash(sorted); h1 != h2 {
		t.Errorf("hash depends on order: %s vs %s", h1, h2)
	}
	if h3 := SpecHash(keys[:49]); h3 == h1 {
		t.Error("hash ignores a dropped key")
	}
}

// TestPlanManifestsVerify: every manifest Plan returns verifies against
// the keys it was planned from, in any order — the property that lets a
// fleet run skip Verify on a manifest it planned itself.
func TestPlanManifestsVerify(t *testing.T) {
	for n := 1; n <= 40; n++ {
		keys := fakeKeys(n, int64(n))
		for _, count := range []int{1, 2, 3, n / 2, n - 1, n} {
			if count < 1 || count > n {
				continue
			}
			plan, err := Plan(keys, count)
			if err != nil {
				t.Fatalf("Plan(%d keys, %d): %v", n, count, err)
			}
			for _, m := range plan {
				if m.SpecHash != SpecHash(keys) {
					t.Errorf("Plan(%d keys, %d) shard %d: spec hash %s, SpecHash says %s", n, count, m.Index, m.SpecHash, SpecHash(keys))
				}
				if err := m.Verify(keys); err != nil {
					t.Errorf("Plan(%d keys, %d) shard %d fails Verify: %v", n, count, m.Index, err)
				}
			}
		}
	}
}
