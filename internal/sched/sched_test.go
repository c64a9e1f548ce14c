package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mobicore/internal/soc"
)

// newCPU builds a one-cluster CPU of the given core count on the MSM8974
// ladder.
func newCPU(t *testing.T, cores int) *soc.CPU {
	t.Helper()
	return newCPUOn(t, cores, soc.MSM8974Table())
}

// newCPUOn builds a one-cluster CPU of the given core count on table.
func newCPUOn(t *testing.T, cores int, table *soc.OPPTable) *soc.CPU {
	t.Helper()
	cpu, err := soc.NewClusteredCPU([]soc.Cluster{{Name: "cpu", NumCores: cores, Table: table}})
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

// busyFor returns a busy-seconds buffer covering cpu's cores, the buffer
// every Schedule caller supplies.
func busyFor(cpu *soc.CPU) []float64 { return make([]float64, cpu.NumCores()) }

func TestThreadLifecycle(t *testing.T) {
	th := NewThread("worker")
	if th.Runnable() {
		t.Error("fresh thread should not be runnable")
	}
	th.AddWork(100)
	th.AddWork(-5) // ignored
	if got := th.Pending(); got != 100 {
		t.Errorf("pending = %v, want 100", got)
	}
	if got := th.DropWork(30); got != 30 {
		t.Errorf("dropped = %v, want 30", got)
	}
	if got := th.DropWork(1000); got != 70 {
		t.Errorf("over-drop = %v, want 70", got)
	}
	if th.Runnable() {
		t.Error("drained thread should not be runnable")
	}
	if th.LastCore() != -1 {
		t.Errorf("unscheduled thread LastCore = %d, want -1", th.LastCore())
	}
}

func TestScheduleExecutesWork(t *testing.T) {
	cpu := newCPU(t, 4)
	if err := cpu.SetClusterFreq(0, 1_036_800*soc.KHz); err != nil {
		t.Fatal(err)
	}
	var s Scheduler
	th := NewThread("t0")
	th.AddWork(500_000) // ~0.48 ms at 1.0368 GHz
	res, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if th.Pending() != 0 {
		t.Errorf("pending = %v, want 0", th.Pending())
	}
	if math.Abs(res.ExecutedCycles-500_000) > 1 {
		t.Errorf("executed = %v, want 500000", res.ExecutedCycles)
	}
	wantSec := 500_000 / 1.0368e9
	if math.Abs(res.BusySeconds[th.LastCore()]-wantSec) > 1e-9 {
		t.Errorf("busy = %v, want %v", res.BusySeconds[th.LastCore()], wantSec)
	}
}

func TestScheduleBalancesThreads(t *testing.T) {
	cpu := newCPU(t, 4)
	if err := cpu.SetClusterFreq(0, 300*soc.MHz); err != nil {
		t.Fatal(err)
	}
	var s Scheduler
	threads := make([]*Thread, 4)
	for i := range threads {
		threads[i] = NewThread("t" + string(rune('0'+i)))
		threads[i].AddWork(1e9) // far more than one tick can serve
	}
	res, err := s.Schedule(cpu, threads, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each thread should land on its own core, each fully busy.
	cores := map[int]bool{}
	for _, th := range threads {
		cores[th.LastCore()] = true
	}
	if len(cores) != 4 {
		t.Errorf("4 heavy threads should spread over 4 cores, got %v", cores)
	}
	for i, b := range res.BusySeconds {
		if math.Abs(b-0.001) > 1e-9 {
			t.Errorf("core %d busy %v, want full tick", i, b)
		}
	}
}

func TestScheduleAffinity(t *testing.T) {
	cpu := newCPU(t, 4)
	var s Scheduler
	th := NewThread("sticky")
	th.AddWork(1000)
	if _, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	home := th.LastCore()
	for i := 0; i < 5; i++ {
		th.AddWork(1000)
		if _, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
			t.Fatal(err)
		}
		if th.LastCore() != home {
			t.Errorf("iteration %d: thread migrated from %d to %d with no pressure", i, home, th.LastCore())
		}
	}
}

func TestScheduleSkipsOfflineCores(t *testing.T) {
	cpu := newCPU(t, 4)
	if err := cpu.SetOnlineCount(1); err != nil {
		t.Fatal(err)
	}
	var s Scheduler
	threads := []*Thread{NewThread("a"), NewThread("b")}
	for _, th := range threads {
		th.AddWork(1e9)
	}
	res, err := s.Schedule(cpu, threads, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if res.BusySeconds[i] != 0 {
			t.Errorf("offline core %d executed work", i)
		}
	}
	for _, th := range threads {
		if th.LastCore() > 0 {
			t.Errorf("thread placed on offline core %d", th.LastCore())
		}
	}
}

// TestBandwidthPoolCapsAggregate: the shared pool caps total busy seconds
// across cores — the §4.1.1 CPU bandwidth control.
func TestBandwidthPoolCapsAggregate(t *testing.T) {
	cpu := newCPU(t, 4)
	var s Scheduler
	threads := make([]*Thread, 4)
	for i := range threads {
		threads[i] = NewThread("t" + string(rune('0'+i)))
		threads[i].AddWork(1e9)
	}
	pool := 0.002 // two core-milliseconds across four cores
	res, err := s.Schedule(cpu, threads, time.Millisecond, pool, Pressure{}, busyFor(cpu), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range res.BusySeconds {
		total += b
	}
	if total > pool+1e-9 {
		t.Errorf("total busy %v exceeds pool %v", total, pool)
	}
	if math.Abs(res.PoolUsedSec-total) > 1e-9 {
		t.Errorf("PoolUsedSec %v != total busy %v", res.PoolUsedSec, total)
	}
	if res.ThrottledSeconds == 0 {
		t.Error("pool exhaustion with pending work should report throttling")
	}
}

func TestZeroPoolRunsNothing(t *testing.T) {
	cpu := newCPU(t, 2)
	var s Scheduler
	th := NewThread("starved")
	th.AddWork(1000)
	res, err := s.Schedule(cpu, []*Thread{th}, time.Millisecond, 0, Pressure{}, busyFor(cpu), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedCycles != 0 {
		t.Errorf("zero pool executed %v cycles", res.ExecutedCycles)
	}
	if th.Pending() != 1000 {
		t.Errorf("pending = %v, want untouched 1000", th.Pending())
	}
}

func TestScheduleValidation(t *testing.T) {
	var s Scheduler
	if _, err := s.Schedule(nil, nil, time.Millisecond, Unlimited, Pressure{}, make([]float64, 2), nil, 0); err == nil {
		t.Error("nil cpu accepted")
	}
	cpu := newCPU(t, 2)
	if _, err := s.Schedule(cpu, nil, 0, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := s.Schedule(cpu, nil, -time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err == nil {
		t.Error("negative window accepted")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	run := func() []float64 {
		cpu := newCPU(t, 4)
		var s Scheduler
		threads := []*Thread{NewThread("b"), NewThread("a"), NewThread("c")}
		threads[0].AddWork(5e5)
		threads[1].AddWork(5e5)
		threads[2].AddWork(3e5)
		res, err := s.Schedule(cpu, threads, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.BusySeconds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic schedule: %v vs %v", a, b)
		}
	}
}

// TestWorkConservationProperty: cycles executed never exceed cycles
// deposited, and executed + remaining pending == deposited.
func TestWorkConservationProperty(t *testing.T) {
	cpu := newCPU(t, 4)
	var s Scheduler
	prop := func(amounts [4]uint32) bool {
		threads := make([]*Thread, 4)
		var deposited float64
		for i := range threads {
			threads[i] = NewThread("p" + string(rune('0'+i)))
			amt := float64(amounts[i] % 10_000_000)
			threads[i].AddWork(amt)
			deposited += amt
		}
		res, err := s.Schedule(cpu, threads, time.Millisecond, Unlimited, Pressure{}, busyFor(cpu), nil, 0)
		if err != nil {
			return false
		}
		var remaining float64
		for _, th := range threads {
			remaining += th.Pending()
		}
		return math.Abs(res.ExecutedCycles+remaining-deposited) < 1e-3 &&
			res.ExecutedCycles <= deposited+1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// thermalTestCPU builds a 2+2 big.LITTLE CPU with the big cluster's ladder
// strictly faster, for the thermal-pressure placement tests.
func thermalTestCPU(t *testing.T) *soc.CPU {
	t.Helper()
	little, err := soc.UniformTable(3, 400*soc.MHz, 1000*soc.MHz, 0.80, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	big, err := soc.UniformTable(3, 500*soc.MHz, 1200*soc.MHz, 0.85, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := soc.NewClusteredCPU([]soc.Cluster{
		{Name: "LITTLE", NumCores: 2, Table: little},
		{Name: "big", NumCores: 2, Table: big},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci, f := range []soc.Hz{1000 * soc.MHz, 1200 * soc.MHz} {
		if err := cpu.SetClusterFreq(ci, f); err != nil {
			t.Fatal(err)
		}
	}
	return cpu
}

// TestThermalPressureSteersToCoolCluster: a backlog thread that would
// normally escalate onto the faster big cluster stays on the cool LITTLE
// cluster when the big cores are flagged thermally capped — the derated
// big capacity (1200 MHz × 0.75 = 900 MHz) no longer beats LITTLE's 1000.
func TestThermalPressureSteersToCoolCluster(t *testing.T) {
	var s Scheduler
	dt := 10 * time.Millisecond

	// Without pressure the huge thread escalates to a big core.
	cpu := thermalTestCPU(t)
	th := NewThread("hog")
	th.AddWork(1e12)
	if _, err := s.Schedule(cpu, []*Thread{th}, dt, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := th.LastCore(); lc < 2 {
		t.Fatalf("uncapped: hog placed on core %d, want a big core (2-3)", lc)
	}

	// With the big cluster capped, placement prefers the cool LITTLE one.
	cpu = thermalTestCPU(t)
	th = NewThread("hog")
	th.AddWork(1e12)
	capped := []bool{false, false, true, true}
	if _, err := s.Schedule(cpu, []*Thread{th}, dt, Unlimited, Pressure{Capped: capped}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := th.LastCore(); lc >= 2 {
		t.Fatalf("capped: hog placed on big core %d, want a LITTLE core", lc)
	}
}

// TestScheduleMatchesScheduleWithNilPressure locks the no-pressure
// contract: the zero Pressure schedules exactly like an all-cool view (every
// core uncapped at full capacity scale), the view the simulation hands the
// scheduler while no thermal cap is engaged.
func TestScheduleMatchesScheduleWithNilPressure(t *testing.T) {
	var s Scheduler
	dt := 10 * time.Millisecond
	cool := Pressure{Capped: make([]bool, 4), CapScale: []float64{1, 1, 1, 1}}
	run := func(zero bool) []float64 {
		cpu := thermalTestCPU(t)
		threads := []*Thread{NewThread("a"), NewThread("b"), NewThread("c")}
		for _, th := range threads {
			th.AddWork(5e6)
		}
		var res Result
		var err error
		if zero {
			res, err = s.Schedule(cpu, threads, dt, Unlimited, Pressure{}, busyFor(cpu), nil, 0)
		} else {
			res, err = s.Schedule(cpu, threads, dt, Unlimited, cool, busyFor(cpu), nil, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.BusySeconds
	}
	a, b := run(true), run(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("core %d busy diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestThermalPressureBreaksAffinity: a persistent thread pinned to a big
// core by soft affinity must migrate once that cluster caps while a cool
// cluster exists — otherwise a game's render loop rides the throttled
// cluster for the whole session.
func TestThermalPressureBreaksAffinity(t *testing.T) {
	var s Scheduler
	dt := 10 * time.Millisecond
	cpu := thermalTestCPU(t)
	th := NewThread("render")
	th.AddWork(1e12)
	if _, err := s.Schedule(cpu, []*Thread{th}, dt, Unlimited, Pressure{}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := th.LastCore(); lc < 2 {
		t.Fatalf("setup: thread on core %d, want a big core", lc)
	}
	// Big cluster caps: the next window must move the thread to LITTLE.
	th.AddWork(1e12)
	capped := []bool{false, false, true, true}
	if _, err := s.Schedule(cpu, []*Thread{th}, dt, Unlimited, Pressure{Capped: capped}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if lc := th.LastCore(); lc >= 2 {
		t.Errorf("thread stayed on capped big core %d, want migration to LITTLE", lc)
	}
	// With every cluster capped there is nowhere cooler: affinity holds.
	th.AddWork(1e12)
	lcBefore := th.LastCore()
	allCapped := []bool{true, true, true, true}
	if _, err := s.Schedule(cpu, []*Thread{th}, dt, Unlimited, Pressure{Capped: allCapped}, busyFor(cpu), nil, 0); err != nil {
		t.Fatal(err)
	}
	if th.LastCore() != lcBefore {
		t.Errorf("uniformly capped SoC broke affinity: %d -> %d", lcBefore, th.LastCore())
	}
}

// TestScheduleReusesBuffer: a reused busy buffer must yield results
// identical to a fresh one while receiving the busy seconds — including
// zeroing stale entries from the previous window — and a buffer too small
// for the CPU is refused.
func TestScheduleReusesBuffer(t *testing.T) {
	fresh := newCPU(t, 4)
	pooled := newCPU(t, 4)
	for _, cpu := range []*soc.CPU{fresh, pooled} {
		if err := cpu.SetClusterFreq(0, 1_036_800*soc.KHz); err != nil {
			t.Fatal(err)
		}
	}
	mkThreads := func() []*Thread {
		ths := make([]*Thread, 3)
		for i := range ths {
			ths[i] = NewThread("t" + string(rune('0'+i)))
			ths[i].AddWork(400_000)
		}
		return ths
	}
	var sa, sb Scheduler
	// Poison the reused buffer so a missing zeroing pass shows up.
	buf := []float64{99, 99, 99, 99}
	for window := 0; window < 3; window++ {
		ra, err := sa.Schedule(fresh, mkThreads(), time.Millisecond, Unlimited, Pressure{}, busyFor(fresh), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sb.Schedule(pooled, mkThreads(), time.Millisecond, Unlimited, Pressure{}, buf, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf = rb.BusySeconds
		if ra.ExecutedCycles != rb.ExecutedCycles {
			t.Fatalf("window %d: executed %v != %v", window, ra.ExecutedCycles, rb.ExecutedCycles)
		}
		if len(ra.BusySeconds) != len(rb.BusySeconds) {
			t.Fatalf("window %d: busy lengths differ", window)
		}
		for i := range ra.BusySeconds {
			if ra.BusySeconds[i] != rb.BusySeconds[i] {
				t.Errorf("window %d core %d: busy %v != %v", window, i, ra.BusySeconds[i], rb.BusySeconds[i])
			}
		}
	}
	var sc Scheduler
	if _, err := sc.Schedule(newCPU(t, 4), mkThreads(), time.Millisecond, Unlimited, Pressure{}, make([]float64, 1), nil, 0); err == nil {
		t.Error("a 1-core busy buffer was accepted for a 4-core CPU")
	}
}
