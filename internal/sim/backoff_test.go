package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/sched"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// noisyThenQuiet deposits a random sub-capacity amount on every thread each
// tick until quietAt, then the same amount every tick: the memo misses on
// every noisy tick (each window's debts are new) and replays every quiet
// one once a window is recorded.
type noisyThenQuiet struct {
	threads []*sched.Thread
	quietAt time.Duration
}

func (w *noisyThenQuiet) Name() string { return "noisy-then-quiet" }

func (w *noisyThenQuiet) Tick(now, dt time.Duration, rng *rand.Rand) {
	for _, th := range w.threads {
		amt := 1e6
		if now < w.quietAt {
			amt *= 0.5 + rng.Float64()
		}
		th.AddWork(amt)
	}
}

func (w *noisyThenQuiet) Threads() []*sched.Thread { return w.threads }
func (w *noisyThenQuiet) Done() bool               { return false }

// pinnedMgr holds every core online at one frequency with the full quota,
// so its decisions never invalidate the memo.
type pinnedMgr struct{ freq soc.Hz }

func (m pinnedMgr) Name() string { return "pinned" }
func (m pinnedMgr) Reset()       {}

func (m pinnedMgr) Decide(in policy.Input) (policy.Decision, error) {
	tf := make([]soc.Hz, len(in.CurFreq))
	for i := range tf {
		tf[i] = m.freq
	}
	return policy.Decision{TargetFreq: tf, OnlineCores: len(tf), Quota: 1}, nil
}

// TestBackoffFusedMatchesNoFuse runs a session that is noisy well past the
// recording backoff's miss streak and then goes quiet, fused and NoFuse.
// The fused run must have backed off by the end of the noisy phase, re-arm
// the memo within one backoff cycle of going quiet and then replay every
// tick, while its report and per-tick power trace stay bit-identical to
// the NoFuse run's.
func TestBackoffFusedMatchesNoFuse(t *testing.T) {
	const noisyTicks, quietTicks = 300, 300
	plat := platform.Nexus5()
	run := func(noFuse bool) (rep *Report, trace []byte, fast []bool, slowRun int) {
		t.Helper()
		wl := &noisyThenQuiet{quietAt: noisyTicks * time.Millisecond}
		for i := 0; i < 4; i++ {
			wl.threads = append(wl.threads, sched.NewThread("q"+string(rune('0'+i))))
		}
		s, err := SessionSpec{
			Platform:  plat,
			Manager:   pinnedMgr{freq: plat.Table.Max().Freq},
			Workloads: []workload.Workload{wl},
			Seed:      3,
			NoFuse:    noFuse,
			PowerTrace: func(now, dt time.Duration, systemW float64, clusterW []float64) {
				trace = binary.LittleEndian.AppendUint64(trace, uint64(now))
				trace = binary.LittleEndian.AppendUint64(trace, uint64(dt))
				trace = binary.LittleEndian.AppendUint64(trace, math.Float64bits(systemW))
				for _, w := range clusterW {
					trace = binary.LittleEndian.AppendUint64(trace, math.Float64bits(w))
				}
			},
		}.New()
		if err != nil {
			t.Fatal(err)
		}
		fast = make([]bool, noisyTicks+quietTicks)
		for i := range fast {
			before := s.FastTicks()
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			fast[i] = s.FastTicks() != before
			if i == noisyTicks-1 {
				slowRun = s.slowRun
			}
		}
		return s.report(), trace, fast, slowRun
	}

	fusedRep, fusedTrace, fast, slowRun := run(false)
	plainRep, plainTrace, plainFast, _ := run(true)

	if slowRun < memoBackoffCycle {
		t.Fatalf("noisy phase ended %d full passes after a replay, want at least one backoff cycle (%d)", slowRun, memoBackoffCycle)
	}
	first := -1
	for i := noisyTicks; i < len(fast); i++ {
		if fast[i] {
			first = i
			break
		}
	}
	if first < 0 || first-noisyTicks >= memoBackoffCycle {
		t.Fatalf("first replay %d ticks after going quiet, want fewer than one backoff cycle (%d)", first-noisyTicks, memoBackoffCycle)
	}
	for i := first; i < len(fast); i++ {
		if !fast[i] {
			t.Fatalf("tick %d fell off the fast path after the memo re-armed at tick %d", i, first)
		}
	}
	for i, f := range plainFast {
		if f {
			t.Fatalf("NoFuse run replayed tick %d", i)
		}
	}
	if string(fusedTrace) != string(plainTrace) {
		t.Fatal("fused and NoFuse power traces differ")
	}
	if !reflect.DeepEqual(fusedRep, plainRep) {
		t.Errorf("reports diverge:\nfused:  %+v\nnofuse: %+v", fusedRep, plainRep)
	}
}

// TestRecordPassSchedule pins which full passes after the last replay
// record: the first memoMissStreak, then powers of two, then one per
// memoBackoffCycle.
func TestRecordPassSchedule(t *testing.T) {
	var got []int
	for n := 0; n < 3*memoBackoffCycle+1; n++ {
		if recordPass(n) {
			got = append(got, n)
		}
	}
	want := []int{0, 1, 2, 3, 4, 8, 16, 32, 64, 96}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recording passes %v, want %v", got, want)
	}
}
