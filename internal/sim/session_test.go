package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/workload"
)

// TestSessionSpecRunMatchesHandDriven: SessionSpec.Run (series reserved
// from Duration) and the same spec built with no Duration and stepped by
// hand through Sim.Run must produce byte-identical reports — reservation
// only moves allocations.
func TestSessionSpecRunMatchesHandDriven(t *testing.T) {
	dur := 2 * time.Second
	specRep, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.4, 4)},
		Duration:  dur,
		Seed:      7,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.4, 4)},
		Seed:      7,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	handRep, err := s.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specRep, handRep) {
		t.Errorf("SessionSpec.Run report differs from hand-driven report:\nspec: %+v\nhand: %+v", specRep, handRep)
	}
}

// TestSessionSpecValidation: Run rejects a spec that fillDefaults rejects,
// and a spec without a duration.
func TestSessionSpecValidation(t *testing.T) {
	_, err := SessionSpec{Platform: platform.Nexus5(), Duration: time.Second}.Run(context.Background())
	if err == nil {
		t.Fatal("spec without manager/workloads should fail")
	}
	_, err = SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.4, 1)},
	}.Run(context.Background())
	if err == nil {
		t.Fatal("spec without duration should fail")
	}
}

// TestRunCtxCancel: a canceled context stops the loop between ticks and
// still hands back the partial report.
func TestRunCtxCancel(t *testing.T) {
	s, err := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.4, 4)},
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Advance a little, then cancel: the next RunCtx call must return the
	// partial report immediately.
	if _, err := s.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancel()
	rep, err := s.RunCtx(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("canceled RunCtx should still return the partial report")
	}
	if rep.Duration != 100*time.Millisecond {
		t.Errorf("partial report duration = %v, want 100ms", rep.Duration)
	}

	// Same contract for the until-done variant.
	rep2, done, err := s.RunUntilDoneCtx(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) || done {
		t.Fatalf("RunUntilDoneCtx = done %v err %v, want !done, context.Canceled", done, err)
	}
	if rep2 == nil {
		t.Fatal("canceled RunUntilDoneCtx should still return the partial report")
	}
}
