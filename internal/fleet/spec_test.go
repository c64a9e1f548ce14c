package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/sim"
)

// nestedCells is the reference expansion: the cross-product written as
// nested loops in platform → policy → workload → placer → seed order, then
// the extra cells, each validated in that order.
func nestedCells(s Spec) ([]Cell, error) {
	placers := s.Placers
	if len(placers) == 0 {
		placers = []string{""}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	var cells []Cell
	for _, plat := range s.Platforms {
		for _, pol := range s.Policies {
			for _, wl := range s.Workloads {
				for _, placer := range placers {
					for _, seed := range seeds {
						cells = append(cells, Cell{
							Platform: plat, Policy: pol, Workload: wl, Placer: placer, Seed: seed,
							Duration: s.Duration, UntilDone: s.UntilDone, Tick: s.Tick,
							SamplePeriod: s.SamplePeriod, NoFuse: s.NoFuse,
						})
					}
				}
			}
		}
	}
	cells = append(cells, s.ExtraCells...)
	if len(cells) == 0 {
		return nil, errors.New("fleet: spec declares no cells")
	}
	for i, c := range cells {
		if err := validCell(c.Policy, c.Workload, c.Duration); err != nil {
			return nil, fmt.Errorf("%w (cell %d)", err, i)
		}
	}
	return cells, nil
}

// cellText spells every field of a cell; the factories are told apart by
// name, which randomSpec keeps unique.
func cellText(c Cell) string {
	return fmt.Sprintf("%s|%s %t|%s %t|%q|%d|%v %t %v %v %t",
		c.Platform.Name, c.Policy.Name, c.Policy.New == nil, c.Workload.Name, c.Workload.New == nil,
		c.Placer, c.Seed, c.Duration, c.UntilDone, c.Tick, c.SamplePeriod, c.NoFuse)
}

// randomSpec draws a spec with every dimension between empty and three
// long, repeated seeds, and extra cells; one in four specs carries a
// nil factory or a non-positive duration somewhere.
func randomSpec(rng *rand.Rand) Spec {
	var s Spec
	for i := range rng.Intn(4) {
		p := platform.Nexus5()
		p.Name = fmt.Sprintf("plat%d", i)
		s.Platforms = append(s.Platforms, p)
	}
	for i := range rng.Intn(4) {
		s.Policies = append(s.Policies, PolicyFactory{Name: fmt.Sprintf("pol%d", i), New: Policy("mobicore").New})
	}
	for i := range rng.Intn(4) {
		s.Workloads = append(s.Workloads, WorkloadFactory{Name: fmt.Sprintf("wl%d", i), New: busyFactory(0.5, 1).New})
	}
	for range rng.Intn(3) {
		s.Placers = append(s.Placers, []string{"", sim.PlacerGreedy, sim.PlacerEAS}[rng.Intn(3)])
	}
	for range rng.Intn(4) {
		s.Seeds = append(s.Seeds, rng.Int63n(3)) // repeats on purpose
	}
	s.Duration = time.Duration(rng.Intn(3)+1) * 10 * time.Millisecond
	s.UntilDone = rng.Intn(2) == 0
	s.Tick = time.Duration(rng.Intn(2)) * time.Millisecond
	for i := range rng.Intn(3) {
		s.ExtraCells = append(s.ExtraCells, Cell{
			Platform: platform.Nexus6P(),
			Policy:   PolicyFactory{Name: fmt.Sprintf("xpol%d", i), New: Policy("android-default").New},
			Workload: WorkloadFactory{Name: fmt.Sprintf("xwl%d", i), New: busyFactory(0.3, 2).New},
			Seed:     int64(i),
			Duration: 20 * time.Millisecond,
		})
	}
	if rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			if len(s.Policies) > 0 {
				s.Policies[rng.Intn(len(s.Policies))].New = nil
			}
		case 1:
			if len(s.Workloads) > 0 {
				s.Workloads[rng.Intn(len(s.Workloads))].New = nil
			}
		case 2:
			s.Duration = -time.Duration(rng.Intn(2))
		case 3:
			if len(s.ExtraCells) > 0 {
				s.ExtraCells[rng.Intn(len(s.ExtraCells))].Duration = 0
			}
		}
	}
	return s
}

// TestExpansionMatchesNestedLoops: over random dimension sizes — empty
// placers and seeds, extra cells only, repeated seeds, invalid factories
// and durations — cell(i), Cells and Keys agree with the nested-loop
// expansion, and an invalid spec fails Cells, Keys and Run with the same
// error naming the same cell index.
func TestExpansionMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	invalid := 0 // specs with a cell that fails validCell
	for trial := range 500 {
		spec := randomSpec(rng)
		want, wantErr := nestedCells(spec)
		cells, err := spec.Cells()
		keys, keysErr := spec.Keys()
		if wantErr != nil {
			if strings.Contains(wantErr.Error(), "(cell ") {
				invalid++
			}
			for _, got := range []error{err, keysErr} {
				if got == nil || got.Error() != wantErr.Error() {
					t.Fatalf("trial %d: error %v, want %v", trial, got, wantErr)
				}
			}
			if _, runErr := Run(context.Background(), spec); runErr == nil || runErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d: Run error %v, want %v", trial, runErr, wantErr)
			}
			continue
		}
		if err != nil || keysErr != nil {
			t.Fatalf("trial %d: Cells %v, Keys %v on a valid spec", trial, err, keysErr)
		}
		if len(cells) != len(want) || len(keys) != len(want) {
			t.Fatalf("trial %d: %d cells, %d keys, want %d", trial, len(cells), len(keys), len(want))
		}
		for i := range want {
			w := cellText(want[i])
			if got := cellText(spec.cell(i)); got != w {
				t.Fatalf("trial %d: cell(%d) = %s, want %s", trial, i, got, w)
			}
			if got := cellText(cells[i]); got != w {
				t.Fatalf("trial %d: Cells()[%d] = %s, want %s", trial, i, got, w)
			}
			if k := want[i].identity().Key(); keys[i] != k {
				t.Fatalf("trial %d: Keys()[%d] = %s, want %s", trial, i, keys[i], k)
			}
		}
	}
	if invalid < 30 {
		t.Fatalf("only %d of 500 specs had an invalid cell; the error path is undersampled", invalid)
	}
}
