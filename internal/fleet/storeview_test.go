package fleet

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mobicore/internal/fleet/store"
)

// TestLoadStoreResultReproducesRun: a report rebuilt from the store alone
// renders the same aggregates, comparisons, and CSV as the run that filled
// it — zero cells executed. The cell rows match byte for byte because the
// canonical store order equals spec order when the spec's dimension lists
// are sorted (as matrixSpec's are).
func TestLoadStoreResultReproducesRun(t *testing.T) {
	dir := t.TempDir()
	spec := matrixSpec(4)
	spec.StoreDir = dir
	runRes, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	res, err := LoadStoreResult(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != 12 || res.Total != 12 {
		t.Fatalf("store view: %d of %d cached, want 12 of 12", res.Cached, res.Total)
	}
	for _, c := range res.Cells {
		if !c.Cached {
			t.Fatalf("cell %d not marked cached in a store view", c.Index)
		}
	}

	var runText, viewText bytes.Buffer
	if err := runRes.WriteText(&runText); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteText(&viewText); err != nil {
		t.Fatal(err)
	}
	runBody := strings.TrimPrefix(runText.String(), "fleet: 12 of 12 cells\n")
	viewBody := strings.TrimPrefix(viewText.String(), "fleet: 12 of 12 cells (12 cached)\n")
	if runBody == runText.String() || viewBody == viewText.String() {
		t.Fatalf("unexpected banners:\nrun:  %q\nview: %q",
			runText.String()[:40], viewText.String()[:40])
	}
	if runBody != viewBody {
		t.Errorf("store-backed report differs from the run's:\n--- run ---\n%s\n--- view ---\n%s", runBody, viewBody)
	}

	var runCSV, viewCSV bytes.Buffer
	if err := runRes.WriteCSV(&runCSV); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&viewCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runCSV.Bytes(), viewCSV.Bytes()) {
		t.Error("store-backed CSV differs from the run's CSV")
	}
}

func TestLoadStoreResultEmpty(t *testing.T) {
	if _, err := LoadStoreResult(t.TempDir()); err == nil {
		t.Error("empty store accepted")
	} else if !strings.Contains(err.Error(), "no records") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestIdentityOrderMatchesIdentityLess: the rank-then-shape sort lists
// records exactly as a sort by identityLess does, for names that natural
// order sorts by embedded number, names it cannot tell apart ("n01",
// "n1"), and every shape field.
func TestIdentityOrderMatchesIdentityLess(t *testing.T) {
	names := []string{"n1", "n01", "n2", "n10", "n", "N1", "n1a", ""}
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return names[rng.Intn(len(names))] }
	recs := make([]store.Record, 2000)
	for i := range recs {
		id := store.Identity{
			Platform:   pick(),
			Policy:     pick(),
			Workload:   pick(),
			Placer:     pick(),
			Seed:       rng.Int63n(5) - 2,
			DurationNS: rng.Int63n(2),
			UntilDone:  rng.Intn(2) == 0,
			TickNS:     rng.Int63n(2),
			SampleNS:   rng.Int63n(2),
		}
		recs[i] = store.Record{Key: id.Key(), Identity: id}
	}
	want := make([]int, len(recs))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return identityLess(recs[want[i]].Identity, recs[want[j]].Identity) })
	got := identityOrder(recs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: record %d (%+v), want %d (%+v)", i, got[i], recs[got[i]].Identity, want[i], recs[want[i]].Identity)
		}
	}
}
