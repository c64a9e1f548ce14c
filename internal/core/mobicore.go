// Package core implements the thesis' contribution: MobiCore, the adaptive
// hybrid CPU manager that unifies DVFS, dynamic core scaling, and CPU
// bandwidth control into one decision per sampling period (Figure 8):
//
//  1. run the stock ondemand DVFS pass,
//  2. analyze workload variation and scale the global bandwidth quota
//     (Algorithm 4.1.2 / Table 2),
//  3. re-evaluate the set of online cores — by the §5.2 threshold rule
//     (per-core utilization below 10% offlines a core) or, when a power
//     model is attached, by the §4.2 energy-model search ("the best one is
//     chosen by our model"),
//  4. recompute the per-core frequency from Eq. 9:
//     f_new = f_ondemand · K · n_max / n, with K the quota-scaled overall
//     utilization — adding a core instead whenever f_new would exceed
//     f_max ("looking for a good operating point will automatically switch
//     to add a new core instead of raising the frequency too high", §5.3).
//
// The package also provides the §4.2 energy-model oracle (oracle.go), which
// exhaustively minimizes predicted power over (cores, frequency) pairs and
// serves as the validation reference for the closed-form law.
package core

import (
	"errors"
	"fmt"
	"math"

	"mobicore/internal/cpufreq"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// Tunables configure MobiCore. The defaults are the thesis' published
// constants.
type Tunables struct {
	// LowUtil is the overall-utilization gate of Algorithm 4.1.2: the
	// bandwidth controller only acts when overall utilization is below
	// this ("if the overall workload is high at t and t-1 ... CPUs will
	// still need a high bandwidth", §5.2). Fraction; paper value 0.40.
	// Overall utilization here averages over all cores, offline cores
	// counting as zero — §2.2's "average of the utilizations over all
	// the CPU cores".
	LowUtil float64
	// DownDelta and UpDelta classify slow mode and burst mode from the
	// change in overall utilization between consecutive samples.
	// Fractions of utilization; the thesis leaves the thresholds
	// symbolic — we default to ±0.05.
	DownDelta float64
	UpDelta   float64
	// SlowScale is the quota multiplier applied in slow mode (paper: 0.9).
	SlowScale float64
	// QuotaHeadroom is added to the utilization-derived quota so a
	// steady workload is not throttled by measurement noise. The
	// pseudocode's literal quota = utilization would ratchet a constant
	// load downward; the headroom is the minimal stabilizer and is
	// ablatable (set it to 0 to run the literal algorithm).
	QuotaHeadroom float64
	// MinQuota floors the bandwidth so the system cannot starve itself.
	MinQuota float64

	// OffThreshold is the core re-evaluation rule of §5.2: a core whose
	// utilization is below this is a candidate for offlining (paper:
	// 0.10). Used when no power model is attached.
	OffThreshold float64
	// MinCores keeps at least this many cores online (>= 1).
	MinCores int
	// PegThreshold detects a saturated (pegged) core: when any online
	// core's utilization reaches it, the frequency is held — a pegged
	// core means measured demand under-reports true demand (the workload
	// is clock-bound, typically a game's main thread), so trimming would
	// spiral throughput down. This is the "reproduce at least the same
	// performance" constraint of §4.0 made operational.
	PegThreshold float64

	// Ondemand configures the embedded base governor.
	Ondemand cpufreq.OndemandTunables
}

// DefaultTunables returns the thesis' constants.
func DefaultTunables() Tunables {
	return Tunables{
		LowUtil:       0.40,
		DownDelta:     0.05,
		UpDelta:       0.05,
		SlowScale:     0.90,
		QuotaHeadroom: 0.10,
		MinQuota:      0.05,
		OffThreshold:  0.10,
		MinCores:      1,
		PegThreshold:  0.97,
		Ondemand:      mobicoreOndemand(),
	}
}

// mobicoreOndemand is the embedded base governor configuration: stock
// thresholds without the performance-biased post-burst hold — MobiCore's
// whole point is to re-evaluate the burst choice instead of holding it.
func mobicoreOndemand() cpufreq.OndemandTunables {
	t := cpufreq.DefaultOndemandTunables()
	t.SamplingDownFactor = 0
	return t
}

// Validate rejects nonsensical tunables.
func (t Tunables) Validate() error {
	switch {
	case t.LowUtil <= 0 || t.LowUtil > 1:
		return errors.New("core: LowUtil must be in (0,1]")
	case t.DownDelta <= 0 || t.UpDelta <= 0:
		return errors.New("core: burst/slow deltas must be positive")
	case t.SlowScale <= 0 || t.SlowScale > 1:
		return errors.New("core: SlowScale must be in (0,1]")
	case t.QuotaHeadroom < 0 || t.QuotaHeadroom > 1:
		return errors.New("core: QuotaHeadroom must be in [0,1]")
	case t.MinQuota <= 0 || t.MinQuota > 1:
		return errors.New("core: MinQuota must be in (0,1]")
	case t.OffThreshold < 0 || t.OffThreshold > 1:
		return errors.New("core: OffThreshold must be in [0,1]")
	case t.MinCores < 1:
		return errors.New("core: MinCores must be >= 1")
	case t.PegThreshold <= 0 || t.PegThreshold > 1:
		return errors.New("core: PegThreshold must be in (0,1]")
	}
	return t.Ondemand.Validate()
}

// MobiCore is the per-domain engine of the unified manager: Figure 8 run
// on one frequency domain's cores. Clustered runs one per domain. It is
// deterministic and keeps one sample of history (the previous overall
// utilization) for burst/slow detection.
type MobiCore struct {
	table    *soc.OPPTable
	tun      Tunables
	ondemand *cpufreq.Ondemand
	model    *power.Model // optional: enables §4.2 model-guided core scaling

	havePrev bool
	prevUtil float64

	// loadScratch backs the model's candidate evaluations in chooseCores —
	// one buffer per manager (managers are single-goroutine, one per cell),
	// so the per-period ladder scan allocates nothing.
	loadScratch []power.CoreLoad
}

// build makes one domain's engine. A nil model selects the §5.2
// threshold rule for core re-evaluation; a model selects the §4.2
// energy-model search ("the best one is chosen by our model").
func build(table *soc.OPPTable, tun Tunables, model *power.Model) (*MobiCore, error) {
	if table == nil || table.Len() == 0 {
		return nil, soc.ErrEmptyTable
	}
	if err := tun.Validate(); err != nil {
		return nil, err
	}
	od, err := cpufreq.NewOndemand(table, tun.Ondemand)
	if err != nil {
		return nil, fmt.Errorf("core: building embedded ondemand: %w", err)
	}
	return &MobiCore{table: table, tun: tun, ondemand: od, model: model}, nil
}

// decide follows Figure 8 step by step on one domain: the cores ids of
// the whole-SoC observation in. It writes each of those cores' target
// frequency into targets (indexed by core id) and returns the domain's
// online-core count and bandwidth quota.
//
//mobicore:hotpath
func (m *MobiCore) decide(in *policy.Input, ids []int, targets []soc.Hz) (cores int, quota float64) {
	nmax := len(ids)

	// Observations: K is the overall utilization of the phone — the
	// average over all cores, offline cores contributing zero (§2.2).
	// The hottest core and policy frequency drive the ondemand pass;
	// demand is the served cycle rate, the config-independent load view.
	var sumUtil, maxUtil, demand float64
	var curMaxFreq soc.Hz
	online := 0
	for _, i := range ids {
		if !in.Online[i] {
			continue
		}
		online++
		sumUtil += in.Util[i]
		if in.Util[i] > maxUtil {
			maxUtil = in.Util[i]
		}
		if in.CurFreq[i] > curMaxFreq {
			curMaxFreq = in.CurFreq[i]
		}
		demand += in.Util[i] * float64(in.CurFreq[i])
	}
	k := sumUtil / float64(nmax)
	if curMaxFreq == 0 {
		curMaxFreq = m.table.Min().Freq
	}

	// Step 1: the stock ondemand DVFS pass — the frequency the default
	// governor would have programmed (Figure 8's "Initial state:
	// ondemand DVFS"). The hottest core drives it, preserving ondemand's
	// burst-to-max responsiveness.
	fOndemand := m.ondemand.TargetOne(maxUtil, curMaxFreq)

	// Step 2: bandwidth analysis (Algorithm 4.1.2). A pegged core vetoes
	// any reduction: averaging a saturated main thread with idle
	// siblings can read as "low overall utilization" when the workload
	// is actually clock-starved, and throttling it would stall the very
	// thread that needs time.
	quota = m.decideQuota(k)
	pegged := maxUtil >= m.tun.PegThreshold
	if pegged {
		quota = 1
	}

	// A core count beyond the number of concurrently runnable threads is
	// pure leakage — the spare cores would idle. The active-core count
	// (cores doing non-trivial work) is the observable proxy for thread
	// concurrency and caps the search.
	active := 0
	for _, i := range ids {
		if in.Online[i] && in.Util[i] > activeUtil {
			active++
		}
	}
	maxUseful := active + 1 // room for concurrency to grow one step per period
	if maxUseful > nmax {
		maxUseful = nmax
	}
	if maxUseful < m.tun.MinCores {
		maxUseful = m.tun.MinCores
	}

	// Step 3 + 4 combined: choose the (cores, frequency) combination.
	// Eq. 9's K is scaled by the quota (K = K·q, §4.1.1).
	kq := k * quota
	cores = m.chooseCores(in, ids, fOndemand, kq, demand, online, maxUseful)
	freq, cores := m.freqFor(fOndemand, kq, demand, cores, nmax, maxUseful)

	// Per-core targets: the platform has per-core rails (Table 1's
	// Krait 400, §4.1.2), so the law frequency applies per core, and any
	// pegged core escalates independently. A saturated core means the
	// measured demand under-reports the workload's true need — its
	// thread is clock-bound and Eq. 9's K-scaling (built from that
	// under-reported demand) would starve it. Give pegged cores what
	// stock ondemand would have: the unscaled burst frequency. This is
	// why the thesis measures a slightly *higher* average frequency
	// under MobiCore on Real Racing 3 (§6.3): with "a fixed number of
	// the active cores sufficient" and no slack to trim, the escalation
	// path is all that remains.
	for _, i := range ids {
		targets[i] = freq
	}
	if pegged {
		esc := freq
		if fOndemand > esc {
			esc = fOndemand
		}
		for _, i := range ids {
			if in.Online[i] && in.Util[i] >= m.tun.PegThreshold {
				t := esc
				if in.CurFreq[i] > t {
					t = in.CurFreq[i]
				}
				targets[i] = t
			}
		}
	}
	return cores, quota
}

// activeUtil is the utilization above which a core counts as carrying a
// runnable thread for the concurrency cap.
const activeUtil = 0.05

// decideQuota is Algorithm 4.1.2 (Table 2). It returns the CPU bandwidth
// for the next period as a fraction of the phone's total capacity
// (n_max cores), which is the unit K is measured in.
func (m *MobiCore) decideQuota(util float64) float64 {
	defer func() { m.prevUtil = util; m.havePrev = true }()

	if util >= m.tun.LowUtil {
		// High load at t (and implicitly t-1): full bandwidth.
		return 1
	}
	if !m.havePrev {
		return 1
	}
	delta := util - m.prevUtil
	quota := util + m.tun.QuotaHeadroom // line 2: quota = utilization
	switch {
	case delta > m.tun.UpDelta:
		// Burst mode: "we respectively allocate the entire bandwidth"
		// (§5.2); scaling_factor = 1 on the full budget.
		return 1
	case delta < -m.tun.DownDelta:
		// Slow mode: shrink the bandwidth by the scaling factor.
		quota *= m.tun.SlowScale
	}
	return clamp(quota, m.tun.MinQuota, 1)
}

// chooseCores re-evaluates the number of online cores. With a model
// attached it runs the §4.2 search: for each candidate count the frequency
// law fixes the operating point, the energy model prices it, and the count
// moves one step towards the cheapest combination (one step per period —
// hotplug transitions are expensive, §2.1). Without a model it applies the
// §5.2 threshold rule: drop cores whose utilization is below 10%.
func (m *MobiCore) chooseCores(in *policy.Input, ids []int, fOndemand soc.Hz, kq, demand float64, online, maxUseful int) int {
	nmax := len(ids)
	if m.model == nil {
		lowUtil := 0
		for _, i := range ids {
			if in.Online[i] && in.Util[i] < m.tun.OffThreshold {
				lowUtil++
			}
		}
		cores := online - lowUtil
		if cores < m.tun.MinCores {
			cores = m.tun.MinCores
		}
		return cores
	}

	best, bestWatts := online, math.Inf(1)
	for c := m.tun.MinCores; c <= maxUseful; c++ {
		freq, served := m.freqFor(fOndemand, kq, demand, c, nmax, maxUseful)
		if served != c {
			continue // law escalated past this count; skip duplicates
		}
		opp := m.table.CeilFreq(freq)
		if cap(m.loadScratch) < nmax {
			m.loadScratch = make([]power.CoreLoad, nmax)
		}
		watts, err := m.model.PredictWattsInto(m.loadScratch, c, opp, demand, nmax)
		if err != nil {
			continue // out-of-range candidate; the law will still serve
		}
		if watts < bestWatts {
			best, bestWatts = c, watts
		}
	}
	switch {
	case best > online:
		return online + 1
	case best < online:
		return online - 1
	default:
		return online
	}
}

// freqFor evaluates Eq. 9, f_new = f_ondemand·K·n_max/n, resolving the
// result onto the OPP table. Two refinements make the law usable as a
// closed-loop controller:
//
//   - A serving floor of demand/(n·UpThreshold): Eq. 9 rescales a frequency
//     that ondemand already scaled by load, so in the mid-load regime the
//     literal product systematically undershoots the capacity needed to
//     carry the measured demand at the target load, and the system
//     oscillates between overload and burst. The floor is the minimum
//     per-core frequency that serves the measured demand with ondemand's
//     own headroom — "the just-needed frequency" (§2.2.1) made operational.
//   - If the demanded frequency exceeds f_max the workload does not fit on
//     n cores at a sane operating point, so a core is added and the law is
//     re-evaluated (§5.3's "automatically switch to add a new core instead
//     of raising the frequency too high").
func (m *MobiCore) freqFor(fOndemand soc.Hz, kq, demand float64, cores, nmax, maxUseful int) (soc.Hz, int) {
	if kq < 0 {
		kq = 0
	}
	if demand < 0 {
		demand = 0
	}
	fmax := m.table.Max().Freq
	for {
		eq9 := float64(fOndemand) * kq * float64(nmax) / float64(cores)
		floor := demand / (float64(cores) * m.tun.Ondemand.UpThreshold)
		want := math.Max(eq9, floor)
		if want <= float64(fmax) || cores >= maxUseful {
			return m.table.CeilFreq(soc.Hz(math.Ceil(want))).Freq, cores
		}
		cores++
	}
}

// Reset clears the engine's history.
func (m *MobiCore) Reset() {
	m.havePrev = false
	m.prevUtil = 0
	m.ondemand.Reset()
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
