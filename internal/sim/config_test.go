package sim

import (
	"testing"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/soc"
	"mobicore/internal/workload"
)

// pinManager pins frequency, online count, and quota — a deterministic
// stub for exercising the quota-pool machinery.
type pinManager struct {
	freq  soc.Hz
	cores int
	quota float64
}

func (p *pinManager) Name() string { return "pin" }
func (p *pinManager) Decide(in policy.Input) (policy.Decision, error) {
	freqs := make([]soc.Hz, len(in.Util))
	for i := range freqs {
		freqs[i] = p.freq
	}
	return policy.Decision{TargetFreq: freqs, OnlineCores: p.cores, Quota: p.quota}, nil
}
func (p *pinManager) Reset() {}

// TestFillDefaults locks the zero-value behavior of SessionSpec: every
// optional knob takes its documented default.
func TestFillDefaults(t *testing.T) {
	c := SessionSpec{
		Platform:  platform.Nexus5(),
		Manager:   androidDefault(t),
		Workloads: []workload.Workload{busyLoop(t, 0.5, 4)},
	}
	if err := c.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.Tick != time.Millisecond {
		t.Errorf("default tick = %v, want 1ms", c.Tick)
	}
	if c.SamplePeriod != 50*time.Millisecond {
		t.Errorf("default sample period = %v, want 50ms", c.SamplePeriod)
	}
	if c.InitialFreq != c.Platform.Table.Max().Freq {
		t.Errorf("default initial freq = %v, want table max", c.InitialFreq)
	}
	if c.InitialCores != c.Platform.NumCores {
		t.Errorf("default initial cores = %d, want all %d", c.InitialCores, c.Platform.NumCores)
	}
	if c.Placer != PlacerGreedy {
		t.Errorf("default placer = %q, want %q", c.Placer, PlacerGreedy)
	}
}

// TestFillDefaultsErrors covers the negative paths the general config test
// does not reach.
func TestFillDefaultsErrors(t *testing.T) {
	good := func() SessionSpec {
		return SessionSpec{
			Platform:  platform.Nexus5(),
			Manager:   androidDefault(t),
			Workloads: []workload.Workload{busyLoop(t, 0.5, 4)},
		}
	}

	c := good()
	c.Platform = platform.Platform{} // fails Platform.Validate
	if err := c.fillDefaults(); err == nil {
		t.Error("invalid platform accepted")
	}

	c = good()
	c.InitialCores = -2
	if err := c.fillDefaults(); err == nil {
		t.Error("negative initial cores accepted")
	}

	c = good()
	c.Tick = 100 * time.Millisecond
	c.SamplePeriod = 10 * time.Millisecond
	if err := c.fillDefaults(); err == nil {
		t.Error("sample period below tick accepted")
	}
}

// TestQuotaPoolRefill pins a 50% quota and checks the CFS-style pool
// arithmetic: each enforcement period grants quota×numCores×SamplePeriod
// seconds, consumption drains it monotonically, and the clamp keeps it
// from going negative even under saturating demand.
func TestQuotaPoolRefill(t *testing.T) {
	plat := platform.Nexus5()
	mgr := &pinManager{freq: plat.Table.Max().Freq, cores: plat.NumCores, quota: 0.5}
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{busyLoop(t, 1.0, 4)},
		Seed:      3,
	}.New()
	if err != nil {
		t.Fatal(err)
	}

	// Boot pool: the full bandwidth (quota 1.0) over a full period.
	wantBoot := 1.0 * float64(plat.NumCores) * s.spec.SamplePeriod.Seconds()
	if s.quotaPool != wantBoot {
		t.Fatalf("boot pool = %v, want %v", s.quotaPool, wantBoot)
	}

	// Run one full enforcement period plus one tick: the sample fires,
	// the 0.5 quota lands, and the pool is refilled to its grant.
	ticks := int(s.spec.SamplePeriod/s.spec.Tick) + 1
	for i := 0; i < ticks; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.quotaPool < 0 {
			t.Fatalf("quota pool went negative: %v", s.quotaPool)
		}
	}
	if s.quota != 0.5 {
		t.Fatalf("programmed quota = %v, want 0.5", s.quota)
	}
	wantGrant := 0.5 * float64(plat.NumCores) * s.spec.SamplePeriod.Seconds()
	// One tick of a saturating 4-thread load has already drained up to
	// 4 core-ticks from the fresh grant.
	maxDrain := 4 * s.spec.Tick.Seconds()
	if s.quotaPool > wantGrant || s.quotaPool < wantGrant-maxDrain {
		t.Errorf("pool after refill+1 tick = %v, want within [%v,%v]",
			s.quotaPool, wantGrant-maxDrain, wantGrant)
	}

	// Saturating demand must drain the halved pool to (clamped) zero
	// before the next refill and record quota-throttled time.
	for i := 0; i < ticks; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.report()
	if rep.QuotaThrottledSec <= 0 {
		t.Error("saturating load under a 0.5 quota recorded no throttled time")
	}
}

// TestQuotaPoolUnlimited: at quota 1 the pool is bypassed (sched.Unlimited)
// and no throttling is recorded even under full load.
func TestQuotaPoolUnlimited(t *testing.T) {
	plat := platform.Nexus5()
	mgr := &pinManager{freq: plat.Table.Max().Freq, cores: plat.NumCores, quota: 1}
	s, err := SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{busyLoop(t, 1.0, 4)},
		Seed:      3,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuotaThrottledSec != 0 {
		t.Errorf("full quota recorded %v throttled seconds, want 0", rep.QuotaThrottledSec)
	}
}
