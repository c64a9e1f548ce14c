package metrics

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"mobicore/internal/randsrc"
)

// This file is the uncertainty half of the toolkit: confidence intervals on
// means (analytic Student-t and seeded percentile bootstrap) and paired-
// difference summaries for matched-seed policy comparisons. Point estimates
// from a handful of seeds are exactly where governor comparisons flip sign;
// distribution-grade studies report mean ± CI instead.
//
// Every function here is deterministic — the bootstrap draws from a caller-
// seeded rng — and NaN-free for finite inputs: degenerate inputs (one
// sample, zero spread) collapse to a zero-width interval rather than
// propagating 0/0.

// CI is a two-sided confidence interval around a mean.
type CI struct {
	// Level is the coverage (e.g. 0.95 for a 95% interval).
	Level float64 `json:"level"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// HalfWidth returns half the interval's width — the "±" figure.
func (c CI) HalfWidth() float64 { return (c.Hi - c.Lo) / 2 }

// errBadLevel rejects confidence levels outside (0,1).
var errBadLevel = errors.New("metrics: confidence level must be in (0,1)")

// PercentileOf returns the p-th percentile (0 <= p <= 100) of vals using
// the same nearest-rank rule as Series.Percentile, without mutating vals.
func PercentileOf(vals []float64, p float64) (float64, error) {
	if len(vals) == 0 {
		return 0, ErrNoSamples
	}
	if p < 0 || p > 100 {
		return 0, errors.New("metrics: percentile out of range")
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0], nil
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], nil
}

// SummaryOf folds vals into a Summary.
func SummaryOf(vals []float64) Summary {
	var s Summary
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// sampleStdDev is the n-1 (Bessel-corrected) standard deviation the
// analytic intervals use; 0 for fewer than two samples.
func sampleStdDev(s Summary) float64 { return s.SampleStdDev() }

// MeanCI returns the analytic two-sided confidence interval on the mean of
// vals at the given level: mean ± t(level, n-1) · s/√n with the sample
// (n-1) standard deviation. One sample — or zero spread — yields a
// zero-width interval at the mean; no samples is an error. The result is
// NaN-free for finite inputs.
func MeanCI(vals []float64, level float64) (CI, error) {
	if len(vals) == 0 {
		return CI{}, ErrNoSamples
	}
	if level <= 0 || level >= 1 {
		return CI{}, errBadLevel
	}
	sum := SummaryOf(vals)
	mean := sum.Mean()
	sd := sampleStdDev(sum)
	if len(vals) == 1 || sd == 0 {
		return CI{Level: level, Lo: mean, Hi: mean}, nil
	}
	t := StudentTQuantile(1-(1-level)/2, len(vals)-1)
	h := t * sd / math.Sqrt(float64(len(vals)))
	return CI{Level: level, Lo: mean - h, Hi: mean + h}, nil
}

// BootstrapMeanCI returns the percentile-bootstrap confidence interval on
// the mean of vals: resamples bootstrap means (n draws with replacement
// each), with the interval's bounds read off their nearest-rank
// percentiles. The rng is seeded by the caller, so equal inputs always
// produce equal intervals. resamples <= 0 selects the default 1000.
func BootstrapMeanCI(vals []float64, level float64, resamples int, seed int64) (CI, error) {
	if len(vals) == 0 {
		return CI{}, ErrNoSamples
	}
	if level <= 0 || level >= 1 {
		return CI{}, errBadLevel
	}
	if resamples <= 0 {
		resamples = 1000
	}
	mean := SummaryOf(vals).Mean()
	if len(vals) == 1 {
		return CI{Level: level, Lo: mean, Hi: mean}, nil
	}
	rng := rand.New(randsrc.New(seed))
	n := len(vals)
	means := make([]float64, resamples)
	for r := range means {
		var acc float64
		for i := 0; i < n; i++ {
			acc += vals[rng.Intn(n)]
		}
		means[r] = acc / float64(n)
	}
	alpha := (1 - level) / 2
	lo, err := PercentileOf(means, alpha*100)
	if err != nil {
		return CI{}, err
	}
	hi, err := PercentileOf(means, (1-alpha)*100)
	if err != nil {
		return CI{}, err
	}
	return CI{Level: level, Lo: lo, Hi: hi}, nil
}

// PairedSummary is the matched-sample comparison of two conditions — the
// same seeds run under policy A and policy B. The interval is on the mean
// of the per-seed differences (B−A), which is the statistic that decides
// "does B beat A" when per-seed variance dwarfs the between-policy gap.
type PairedSummary struct {
	// N is the number of matched pairs.
	N int `json:"n"`
	// MeanA and MeanB are the per-condition means.
	MeanA float64 `json:"mean_a"`
	MeanB float64 `json:"mean_b"`
	// MeanDelta is the mean per-pair difference (B−A).
	MeanDelta float64 `json:"mean_delta"`
	// StdDev is the sample (n-1) standard deviation of the differences.
	StdDev float64 `json:"stddev"`
	// CI bounds MeanDelta at the requested level.
	CI CI `json:"ci"`
	// Rel is MeanDelta/MeanA — the "X% savings" arithmetic, 0 when the
	// baseline mean is 0.
	Rel float64 `json:"rel"`
}

// PairedDiff summarizes the matched differences b[i]−a[i] with an analytic
// confidence interval at the given level. The slices must be equal-length
// and non-empty, with a[i] and b[i] from the same matched unit (seed).
func PairedDiff(a, b []float64, level float64) (PairedSummary, error) {
	if len(a) == 0 {
		return PairedSummary{}, ErrNoSamples
	}
	if len(a) != len(b) {
		return PairedSummary{}, errors.New("metrics: paired samples must be equal-length")
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = b[i] - a[i]
	}
	ci, err := MeanCI(diffs, level)
	if err != nil {
		return PairedSummary{}, err
	}
	sum := SummaryOf(diffs)
	meanA := SummaryOf(a).Mean()
	out := PairedSummary{
		N:         len(a),
		MeanA:     meanA,
		MeanB:     SummaryOf(b).Mean(),
		MeanDelta: sum.Mean(),
		StdDev:    sampleStdDev(sum),
		CI:        ci,
	}
	if meanA != 0 {
		out.Rel = out.MeanDelta / meanA
	}
	return out, nil
}

// StudentTQuantile returns the p-th quantile (0 < p < 1) of Student's t
// distribution with df degrees of freedom, computed by inverting the exact
// CDF (regularized incomplete beta) with bisection — accurate at the tiny
// df where series approximations drift and seed counts actually live.
// Out-of-range p or df < 1 returns 0.
func StudentTQuantile(p float64, df int) float64 {
	if df < 1 || p <= 0 || p >= 1 {
		return 0
	}
	if p == 0.5 {
		return 0
	}
	// By symmetry solve for the upper tail and mirror.
	if p < 0.5 {
		return -StudentTQuantile(1-p, df)
	}
	lo, hi := 0.0, 1.0
	for studentTCDF(hi, df) < p && hi < 1e12 {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// studentTCDF is the CDF of Student's t with df degrees of freedom:
// for t >= 0, F(t) = 1 − I_x(df/2, 1/2)/2 with x = df/(df+t²).
func studentTCDF(t float64, df int) float64 {
	if t == 0 {
		return 0.5
	}
	x := float64(df) / (float64(df) + t*t)
	tail := regIncBeta(float64(df)/2, 0.5, x) / 2
	if t > 0 {
		return 1 - tail
	}
	return tail
}

// regIncBeta is the regularized incomplete beta function I_x(a,b),
// evaluated by the standard continued fraction (converges fast on the side
// x < (a+1)/(a+b+2); the other side uses the symmetry I_x(a,b) =
// 1 − I_{1−x}(b,a)).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	front := math.Exp(lgAB - lgA - lgB + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete-beta continued fraction by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
