package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"mobicore/internal/soc"
)

// memoFixture builds a 4-core CPU at a mid-ladder frequency plus one thread
// per pending amount, named t0, t1, ... so name tiebreaks are deterministic.
func memoFixture(t *testing.T, pendings []float64) (*soc.CPU, []*Thread) {
	t.Helper()
	cpu := newCPU(t, 4)
	if err := cpu.SetClusterFreq(0, 1_036_800*soc.KHz); err != nil {
		t.Fatal(err)
	}
	threads := make([]*Thread, len(pendings))
	for i, p := range pendings {
		th := NewThread(fmt.Sprintf("t%d", i))
		th.AddWork(p)
		threads[i] = th
	}
	return cpu, threads
}

func memoSatRate() float64 { return float64(soc.MSM8974Table().Max().Freq) }

// bitsEqual compares floats as bit patterns: the memo contract is
// byte-identical replay, not approximate replay.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireResultIdentical(t *testing.T, tick int, got, want Result) {
	t.Helper()
	if len(got.BusySeconds) != len(want.BusySeconds) {
		t.Fatalf("tick %d: busy len %d vs %d", tick, len(got.BusySeconds), len(want.BusySeconds))
	}
	for i := range got.BusySeconds {
		if !bitsEqual(got.BusySeconds[i], want.BusySeconds[i]) {
			t.Fatalf("tick %d: core %d busy %x vs %x", tick, i,
				math.Float64bits(got.BusySeconds[i]), math.Float64bits(want.BusySeconds[i]))
		}
	}
	if !bitsEqual(got.ExecutedCycles, want.ExecutedCycles) {
		t.Fatalf("tick %d: executed %v vs %v", tick, got.ExecutedCycles, want.ExecutedCycles)
	}
	if !bitsEqual(got.ThrottledSeconds, want.ThrottledSeconds) {
		t.Fatalf("tick %d: throttled %v vs %v", tick, got.ThrottledSeconds, want.ThrottledSeconds)
	}
	if !bitsEqual(got.PoolUsedSec, want.PoolUsedSec) {
		t.Fatalf("tick %d: pool used %v vs %v", tick, got.PoolUsedSec, want.PoolUsedSec)
	}
}

// requireUniversesIdentical compares two universes' CPUs — every core's
// online flag and programmed frequency — and every thread's state.
func requireUniversesIdentical(t *testing.T, tick int, cpuA, cpuB *soc.CPU, thA, thB []*Thread) {
	t.Helper()
	if !slices.Equal(cpuA.Online(), cpuB.Online()) || !slices.Equal(cpuA.Freqs(), cpuB.Freqs()) {
		t.Fatalf("tick %d: CPUs differ: online %v vs %v, freqs %v vs %v", tick,
			cpuA.Online(), cpuB.Online(), cpuA.Freqs(), cpuB.Freqs())
	}
	for i := range thA {
		a, b := thA[i], thB[i]
		if !bitsEqual(a.Pending(), b.Pending()) || !bitsEqual(a.Executed(), b.Executed()) || a.LastCore() != b.LastCore() {
			t.Fatalf("tick %d: thread %d state (%v %v %d) vs (%v %v %d)", tick, i,
				a.Pending(), a.Executed(), a.LastCore(), b.Pending(), b.Executed(), b.LastCore())
		}
	}
}

// runMemoVsSlow drives two identical universes for ticks windows: A takes the
// memo fast path whenever Match accepts, B always runs the full scheduler.
// Every tick's Result and both universes' complete state must stay
// bit-identical; it returns how many of A's ticks replayed, split into
// windows that had runnable backlog and idle (empty) windows.
func runMemoVsSlow(t *testing.T, pendings []float64, ticks int, poolSec float64) (fastBusy, fastIdle int) {
	t.Helper()
	cpuA, thA := memoFixture(t, pendings)
	cpuB, thB := memoFixture(t, pendings)
	var schedA, schedB Scheduler
	var memo Memo
	satRate := memoSatRate()
	dt := time.Millisecond
	busyA := make([]float64, cpuA.NumCores())
	busyB := make([]float64, cpuB.NumCores())
	for tick := 0; tick < ticks; tick++ {
		runnable := 0
		for _, th := range thA {
			if th.Runnable() {
				runnable++
			}
		}
		var resA Result
		if memo.Match(cpuA, thA, false, poolSec, Pressure{}) {
			resA = memo.ReplayInto(busyA)
			if runnable > 0 {
				fastBusy++
			} else {
				fastIdle++
			}
		} else {
			var err error
			resA, err = schedA.Schedule(cpuA, thA, dt, poolSec, Pressure{}, busyA, &memo, satRate)
			if err != nil {
				t.Fatal(err)
			}
		}
		resB, err := schedB.Schedule(cpuB, thB, dt, poolSec, Pressure{}, busyB, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireResultIdentical(t, tick, resA, resB)
		requireUniversesIdentical(t, tick, cpuA, cpuB, thA, thB)
	}
	return fastBusy, fastIdle
}

// TestMemoReplayMatchesFreshSchedule proves the core contract: a replayed
// window leaves every Result field and thread bit-identical to the full
// scheduling pass it stands in for.
func TestMemoReplayMatchesFreshSchedule(t *testing.T) {
	t.Run("saturated distinct debts", func(t *testing.T) {
		fast, _ := runMemoVsSlow(t, []float64{4e12, 3e12, 2e12, 1e12}, 50, Unlimited)
		if fast < 45 {
			t.Errorf("replayed %d of 50 ticks, want at least 45", fast)
		}
	})
	t.Run("saturated under wide pool", func(t *testing.T) {
		// A finite pool far above per-window consumption records limited
		// windows that keep replaying while headroom holds.
		fast, _ := runMemoVsSlow(t, []float64{4e12, 3e12, 2e12, 1e12}, 50, 1.0)
		if fast < 45 {
			t.Errorf("replayed %d of 50 ticks, want at least 45", fast)
		}
	})
	t.Run("oversubscribed alternation", func(t *testing.T) {
		// Eight equal saturated threads on four cores alternate between two
		// serving halves with stable affinities. Each window differs from
		// the one before it, so the one retained window never matches — the
		// memo must fall back to the slow path, never to wrong output.
		fast, _ := runMemoVsSlow(t, []float64{1e13, 1e13, 1e13, 1e13, 1e13, 1e13, 1e13, 1e13}, 60, Unlimited)
		if fast != 0 {
			t.Errorf("replayed %d ticks of an alternation, want 0", fast)
		}
	})
	t.Run("rotation longer than ring falls back", func(t *testing.T) {
		// Six equal saturated threads on four cores rotate affinities with a
		// period longer than the one retained window, so no window ever
		// matches again — the memo must fall back to the slow path.
		fast, _ := runMemoVsSlow(t, []float64{1e13, 1e13, 1e13, 1e13, 1e13, 1e13}, 30, Unlimited)
		if fast != 0 {
			t.Errorf("replayed %d ticks of an unmemoizable rotation, want 0", fast)
		}
	})
	t.Run("unsaturated drain falls back", func(t *testing.T) {
		// Below the saturation ceiling every grant changes the exact debt
		// the record fingerprinted, so no busy tick may replay — correctness
		// comes from the identity comparison, the count just documents that
		// the memo never pretends a draining window is quiescent. Once the
		// threads empty out, the idle windows replay trivially.
		fastBusy, fastIdle := runMemoVsSlow(t, []float64{2e6, 1.5e6, 1e6, 0.5e6}, 10, Unlimited)
		if fastBusy != 0 {
			t.Errorf("replayed %d busy unsaturated ticks, want 0", fastBusy)
		}
		if fastIdle == 0 {
			t.Error("idle tail should replay its empty windows")
		}
	})
}

// recordSettled runs two recording passes and requires the second to have
// armed. Two are needed for a replayable record: entries fingerprint each
// thread's affinity at window start, and fresh threads only acquire one on
// their first placement — the sim's warmup ticks do the same settling.
func recordSettled(t *testing.T, m *Memo, cpu *soc.CPU, threads []*Thread, poolSec float64, pr Pressure) {
	t.Helper()
	var s Scheduler
	busy := make([]float64, cpu.NumCores())
	for pass := 0; pass < 2; pass++ {
		if _, err := s.Schedule(cpu, threads, time.Millisecond, poolSec, pr, busy, m, memoSatRate()); err != nil {
			t.Fatal(err)
		}
	}
	if !m.valid {
		t.Fatal("recording pass did not arm the memo")
	}
}

func boolvec(vals ...bool) []bool { return vals }

// TestMemoMatchInvalidation walks the input fingerprint one axis at a time:
// each case records a window, perturbs exactly one matching precondition, and
// checks Match's verdict.
func TestMemoMatchInvalidation(t *testing.T) {
	pendings := []float64{4e12, 3e12, 2e12, 1e12}
	zero := Pressure{}
	cases := []struct {
		name    string
		recPool float64
		recPr   Pressure
		mutate  func(t *testing.T, threads []*Thread) []*Thread
		pool    float64
		pr      Pressure
		want    bool
	}{
		{"unchanged inputs replay", Unlimited, zero, nil, Unlimited, zero, true},
		{"exact pool headroom boundary replays", 0.05, zero, nil, 0.005, zero, true},
		{"pool below recorded use plus window", 0.05, zero, nil, 0.0049, zero, false},
		{"unlimited record vs finite pool", Unlimited, zero, nil, 1.0, zero, false},
		{"finite record vs unlimited pool", 0.05, zero, nil, Unlimited, zero, false},
		{"thermal cap engages", Unlimited, Pressure{Capped: boolvec(false, false, false, false)},
			nil, Unlimited, Pressure{Capped: boolvec(true, false, false, false)}, false},
		{"cap scale moves", Unlimited, Pressure{Capped: boolvec(true, true, false, false), CapScale: []float64{0.8, 0.8, 1, 1}},
			nil, Unlimited, Pressure{Capped: boolvec(true, true, false, false), CapScale: []float64{0.7, 0.7, 1, 1}}, false},
		{"equal pressure elements replay", Unlimited, Pressure{Capped: boolvec(false, false, false, false)},
			nil, Unlimited, Pressure{Capped: boolvec(false, false, false, false)}, true},
		{"desaturation", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			threads[0].DropWork(threads[0].Pending() - 1)
			return threads
		}, Unlimited, zero, false},
		{"affinity migration", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			// One cycle on a different core: debt stays saturated and the
			// order stands, only the placement input moved.
			th := threads[0]
			th.Execute(1, (th.LastCore()+1)%4)
			return threads
		}, Unlimited, zero, false},
		{"debt order flips", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			threads[3].AddWork(1.5e12) // overtakes threads[2], both stay saturated
			return threads
		}, Unlimited, zero, false},
		{"new runnable thread", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			th := NewThread("t9")
			th.AddWork(5e12)
			return append(threads, th)
		}, Unlimited, zero, false},
		{"thread drains away", Unlimited, zero, func(t *testing.T, threads []*Thread) []*Thread {
			threads[3].DropWork(threads[3].Pending())
			return threads
		}, Unlimited, zero, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cpu, threads := memoFixture(t, pendings)
			var m Memo
			recordSettled(t, &m, cpu, threads, tc.recPool, tc.recPr)
			if tc.mutate != nil {
				threads = tc.mutate(t, threads)
			}
			got := m.Match(cpu, threads, false, tc.pool, tc.pr)
			if got != tc.want {
				t.Errorf("Match = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMemoMatchCPUChange: the window holds exactly while no core's
// frequency or online state moves — reprogramming a core to the frequency
// it already runs, or a hotplug request that is already met, keeps it.
func TestMemoMatchCPUChange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(cpu *soc.CPU) error
		want   bool
	}{
		{"same frequency", func(cpu *soc.CPU) error { return cpu.SetFreq(2, 1_036_800*soc.KHz) }, true},
		{"online count already met", func(cpu *soc.CPU) error { return cpu.SetOnlineCount(4) }, true},
		{"core reprogrammed", func(cpu *soc.CPU) error { return cpu.SetFreq(2, 960_000*soc.KHz) }, false},
		{"core offlined", func(cpu *soc.CPU) error { return cpu.SetOnlineCount(3) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
			var m Memo
			recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
			if err := tc.change(cpu); err != nil {
				t.Fatal(err)
			}
			if got := m.Match(cpu, threads, false, Unlimited, Pressure{}); got != tc.want {
				t.Errorf("Match = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMemoDrainedRegime covers the starved-pool windows: they replay only
// while the pool is exactly empty and backlog remains.
func TestMemoDrainedRegime(t *testing.T) {
	cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
	var m Memo
	recordSettled(t, &m, cpu, threads, 0, Pressure{})
	if !m.Match(cpu, threads, false, 0, Pressure{}) {
		t.Fatal("empty pool should replay the drained window")
	}
	if m.Match(cpu, threads, false, 0.001, Pressure{}) {
		t.Error("replenished pool must not replay a drained window")
	}
	for _, th := range threads {
		th.DropWork(th.Pending())
	}
	if m.Match(cpu, threads, false, 0, Pressure{}) {
		t.Error("drained window must not replay once no thread is runnable")
	}
}

// TestMemoSteadyStreakTrust pins the steady-hint semantics: an unbroken
// streak of steady windows lets a record verified before the streak skip
// the runnable-set scan, and one broken window retires that trust until the
// record is re-proven the slow way.
func TestMemoSteadyStreakTrust(t *testing.T) {
	cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
	var m Memo
	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})

	if !m.Match(cpu, threads, true, Unlimited, Pressure{}) {
		t.Fatal("steady window immediately after record should replay")
	}

	// The steady hint is authoritative by contract: while the streak holds,
	// the set comparison is skipped entirely, so an extra runnable thread the
	// hint (wrongly) vouches absent goes unnoticed. This is exactly why the
	// simulation only raises the hint from workloads that implement it.
	extra := NewThread("t9")
	extra.AddWork(5e12)
	grown := append(append([]*Thread(nil), threads...), extra)
	if !m.Match(cpu, grown, true, Unlimited, Pressure{}) {
		t.Fatal("steady streak should skip the set scan")
	}

	// One non-steady window breaks the streak and forces the counting scan,
	// which sees five runnable threads against four entries.
	if m.Match(cpu, grown, false, Unlimited, Pressure{}) {
		t.Fatal("broken streak must fall back to the set scan and miss")
	}

	// A fresh steady window does not resurrect the old trust: the window was
	// last verified before this streak began, so the scan still runs.
	if m.Match(cpu, grown, true, Unlimited, Pressure{}) {
		t.Fatal("trust must not survive a broken streak without re-verification")
	}

	// Back at the recorded population the scan proves the set again, and the
	// match re-verifies the window for future streaks.
	if !m.Match(cpu, threads, true, Unlimited, Pressure{}) {
		t.Fatal("restored population should match via the full scan")
	}
}

// TestMemoInvalidateAndRecycle checks the two reset paths: Invalidate drops
// the retained window in place, Recycle returns a fresh memo that records
// again.
func TestMemoInvalidateAndRecycle(t *testing.T) {
	cpu, threads := memoFixture(t, []float64{4e12, 3e12, 2e12, 1e12})
	var m Memo
	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
	m.Invalidate()
	if m.valid {
		t.Error("Invalidate should disarm the memo")
	}
	if m.Match(cpu, threads, false, Unlimited, Pressure{}) {
		t.Error("invalidated memo must not match")
	}

	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
	m = m.Recycle()
	if m.valid {
		t.Error("Recycle should return a disarmed memo")
	}
	if m.Match(cpu, threads, false, Unlimited, Pressure{}) {
		t.Error("recycled memo must not match")
	}
	recordSettled(t, &m, cpu, threads, Unlimited, Pressure{})
	if !m.Match(cpu, threads, false, Unlimited, Pressure{}) {
		t.Error("recycled memo should record and replay again")
	}
}
