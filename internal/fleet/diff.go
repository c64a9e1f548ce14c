package fleet

import (
	"fmt"
	"io"
	"math"
	"sort"

	"mobicore/internal/fleet/store"
)

// Diff is a cross-store comparison: the same cells (matched by identity
// key) run by two code versions, summarized as paired per-cell deltas with
// 95% confidence intervals per matrix group. Because cells match by the
// canonical identity hash, the pairing is exact — seed-for-seed — so
// per-seed workload noise cancels in the difference and the intervals
// answer "did this commit change the physics" directly. That makes the
// diff a CI perf-regression gate: see Regressions.
type Diff struct {
	// Matched counts the cells present in both stores; OnlyA and OnlyB
	// count the unmatched remainder on each side (reported, not an error —
	// two stores may legitimately cover overlapping sweeps).
	Matched int `json:"matched"`
	OnlyA   int `json:"only_a,omitempty"`
	OnlyB   int `json:"only_b,omitempty"`
	// Groups summarizes each (platform, policy, workload, placer) group's
	// matched cells, in canonical identity order.
	Groups []DiffGroup `json:"groups,omitempty"`
}

// DiffGroup is one matrix group's paired B−A summary across its matched
// seeds.
type DiffGroup struct {
	Platform string `json:"platform"`
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	Placer   string `json:"placer"`
	// Seeds is the number of matched cells the group pairs.
	Seeds int `json:"seeds"`

	EnergyJ     PairedStat `json:"energy_j"`
	ThrottleSec PairedStat `json:"throttle_sec"`
	// AvgFPS is meaningful only when HasFrames is set (every matched cell
	// on both sides rendered frames).
	AvgFPS    PairedStat `json:"avg_fps"`
	HasFrames bool       `json:"has_frames,omitempty"`
}

// DiffRecords pairs two record sets by identity key and summarizes the
// per-group deltas. Matched pairs are ordered canonically (identityLess),
// so the diff is a pure function of the two record sets.
func DiffRecords(a, b []store.Record) *Diff {
	bByKey := make(map[string]store.Record, len(b))
	for _, rec := range b {
		bByKey[rec.Key] = rec
	}
	matched := make([]store.Record, 0, len(a))
	for _, rec := range a {
		if _, ok := bByKey[rec.Key]; ok {
			matched = append(matched, rec)
		}
	}
	sort.Slice(matched, func(i, j int) bool { return identityLess(matched[i].Identity, matched[j].Identity) })

	d := &Diff{
		Matched: len(matched),
		OnlyA:   len(a) - len(matched),
		OnlyB:   len(b) - len(matched),
	}
	type group struct {
		g                    DiffGroup
		aEnergy, bEnergy     []float64
		aThrottle, bThrottle []float64
		aFPS, bFPS           []float64
		frames               bool
	}
	var order []string
	groups := map[string]*group{}
	for _, ra := range matched {
		rb := bByKey[ra.Key]
		key := ra.Platform + "\x00" + ra.Policy + "\x00" + ra.Workload + "\x00" + ra.Placer
		g, ok := groups[key]
		if !ok {
			g = &group{
				g: DiffGroup{
					Platform: ra.Platform,
					Policy:   ra.Policy,
					Workload: ra.Workload,
					Placer:   ra.Placer,
				},
				frames: true,
			}
			groups[key] = g
			order = append(order, key)
		}
		g.aEnergy = append(g.aEnergy, ra.EnergyJ)
		g.bEnergy = append(g.bEnergy, rb.EnergyJ)
		g.aThrottle = append(g.aThrottle, ra.ThermalCappedSec)
		g.bThrottle = append(g.bThrottle, rb.ThermalCappedSec)
		g.aFPS = append(g.aFPS, ra.AvgFPS)
		g.bFPS = append(g.bFPS, rb.AvgFPS)
		g.frames = g.frames && ra.HasFrames && rb.HasFrames
	}
	for _, key := range order {
		g := groups[key]
		g.g.Seeds = len(g.aEnergy)
		g.g.EnergyJ = pairedStatOf(g.aEnergy, g.bEnergy)
		g.g.ThrottleSec = pairedStatOf(g.aThrottle, g.bThrottle)
		g.g.HasFrames = g.frames
		if g.frames {
			g.g.AvgFPS = pairedStatOf(g.aFPS, g.bFPS)
		}
		d.Groups = append(d.Groups, g.g)
	}
	return d
}

// LoadStoreDiff opens two store directories and diffs their records.
func LoadStoreDiff(dirA, dirB string) (*Diff, error) {
	load := func(dir string) ([]store.Record, error) {
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		recs := st.Records()
		return recs, st.Close()
	}
	a, err := load(dirA)
	if err != nil {
		return nil, err
	}
	b, err := load(dirB)
	if err != nil {
		return nil, err
	}
	return DiffRecords(a, b), nil
}

// WriteText renders the diff as aligned human-readable text.
func (d *Diff) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "store diff (B-A on matched cells, 95%% CI): %d matched, %d only in A, %d only in B\n",
		d.Matched, d.OnlyA, d.OnlyB); err != nil {
		return err
	}
	for _, g := range d.Groups {
		if _, err := fmt.Fprintf(w, "  %s / %s / %s / %s (%d seeds): energy %+.4g J ci95 [%+.4g, %+.4g] (%+.2f%%); throttle %+.3g s",
			g.Platform, g.Policy, g.Workload, g.Placer, g.Seeds,
			g.EnergyJ.MeanDelta, g.EnergyJ.CI95Lo, g.EnergyJ.CI95Hi, g.EnergyJ.Rel*100,
			g.ThrottleSec.MeanDelta); err != nil {
			return err
		}
		if g.HasFrames {
			if _, err := fmt.Fprintf(w, "; fps %+.3g ci95 [%+.3g, %+.3g]",
				g.AvgFPS.MeanDelta, g.AvgFPS.CI95Lo, g.AvgFPS.CI95Hi); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Regressions returns the groups whose energy moved by more than relTol
// (fractional, e.g. 0.01 = 1%) with a confidence interval that excludes
// zero — the gate condition for "this code version measurably changed the
// physics". A CI that straddles zero is noise at the given seed count; a
// tiny-but-certain delta below relTol is tolerated drift.
func (d *Diff) Regressions(relTol float64) []DiffGroup {
	var out []DiffGroup
	for _, g := range d.Groups {
		excludesZero := (g.EnergyJ.CI95Lo > 0 && g.EnergyJ.CI95Hi > 0) ||
			(g.EnergyJ.CI95Lo < 0 && g.EnergyJ.CI95Hi < 0)
		if excludesZero && math.Abs(g.EnergyJ.Rel) > relTol {
			out = append(out, g)
		}
	}
	return out
}
