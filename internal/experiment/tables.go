package experiment

import (
	"fmt"
	"io"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/power"
	"mobicore/internal/soc"
)

// Table1Result reproduces Table 1: the Nexus 5 platform specification.
type Table1Result struct {
	Platform platform.Platform
}

// ID implements Result.
func (*Table1Result) ID() string { return "table1" }

// Title implements Result.
func (*Table1Result) Title() string { return "Table 1: Specifications of the Nexus 5 platform" }

// WriteText implements Result.
func (r *Table1Result) WriteText(w io.Writer) error {
	p := r.Platform
	fmt.Fprintf(w, "SoC:       Snapdragon 800 (MSM8974)\n")
	fmt.Fprintf(w, "CPU:       %d cores, %d OPPs\n", p.NumCores, p.Table.Len())
	fmt.Fprintf(w, "Freq min:  %v\n", p.Table.Min().Freq)
	fmt.Fprintf(w, "Freq max:  %v\n", p.Table.Max().Freq)
	fmt.Fprintf(w, "Volt min:  %.2f V\n", float64(p.Table.Min().Volt))
	fmt.Fprintf(w, "Volt max:  %.2f V\n", float64(p.Table.Max().Volt))
	fmt.Fprintf(w, "OS:        Android 6.0 (simulated control surface)\n")
	fmt.Fprintf(w, "\nOPP table:\n")
	for _, opp := range p.Table.Points() {
		fmt.Fprintf(w, "  %-12v %.3f V\n", opp.Freq, float64(opp.Volt))
	}
	return nil
}

// RunTable1 dumps the primary platform profile.
func RunTable1(opt Options) (Result, error) {
	_ = opt
	return &Table1Result{Platform: platform.Nexus5()}, nil
}

// Table2Step is one sampling period of the bandwidth controller demo.
type Table2Step struct {
	At    time.Duration
	Util  float64
	Mode  string // "high", "burst", "slow", "fit"
	Quota float64
}

// Table2Result demonstrates Algorithm 4.1.2 (Table 2): the quota decisions
// across a scripted utilization trace covering every branch.
type Table2Result struct {
	Steps []Table2Step
}

// ID implements Result.
func (*Table2Result) ID() string { return "table2" }

// Title implements Result.
func (*Table2Result) Title() string { return "Table 2 / Algorithm 4.1.2: Bandwidth reduction" }

// WriteText implements Result.
func (r *Table2Result) WriteText(w io.Writer) error {
	if len(r.Steps) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%8s %7s %-6s %7s\n", "t", "util%", "mode", "quota")
	for _, s := range r.Steps {
		fmt.Fprintf(w, "%8v %7.0f %-6s %7.2f\n", s.At, s.Util*100, s.Mode, s.Quota)
	}
	return nil
}

// RunTable2 drives the MobiCore bandwidth controller through a scripted
// utilization trace: steady high load (full bandwidth), a decay into slow
// mode (quota shrinks by the 0.9 scaling factor), a steady low stretch
// (shrink-to-fit), and a burst (full bandwidth restored).
func RunTable2(opt Options) (Result, error) {
	_ = opt
	plat := platform.Nexus5()
	tun := core.DefaultTunables()
	mgr, err := core.NewClusteredForPlatform(plat, tun, core.DefaultClusterTunables(), false)
	if err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	clusters := []policy.ClusterView{{Name: "cpu", Table: plat.Table, CoreIDs: []int{0, 1, 2, 3}}}
	trace := []float64{0.70, 0.70, 0.55, 0.35, 0.25, 0.18, 0.18, 0.18, 0.35, 0.80, 0.80}
	res := &Table2Result{Steps: make([]Table2Step, 0, len(trace))}
	prev := 0.0
	for i, util := range trace {
		in := policy.Input{
			Now:      time.Duration(i+1) * 50 * time.Millisecond,
			Period:   50 * time.Millisecond,
			Util:     []float64{util, util, util, util},
			Online:   []bool{true, true, true, true},
			CurFreq:  uniformFreqs(plat.Table, 4),
			Quota:    1,
			Clusters: clusters,
		}
		dec, err := mgr.Decide(in)
		if err != nil {
			return nil, fmt.Errorf("table2 step %d: %w", i, err)
		}
		mode := "fit"
		switch {
		case util >= tun.LowUtil:
			mode = "high"
		case i == 0:
			mode = "first"
		case util-prev > tun.UpDelta:
			mode = "burst"
		case util-prev < -tun.DownDelta:
			mode = "slow"
		}
		res.Steps = append(res.Steps, Table2Step{
			At:    in.Now,
			Util:  util,
			Mode:  mode,
			Quota: dec.Quota,
		})
		prev = util
	}
	return res, nil
}

func uniformFreqs(table *soc.OPPTable, n int) []soc.Hz {
	out := make([]soc.Hz, n)
	f := table.At(table.Len() / 2).Freq
	for i := range out {
		out[i] = f
	}
	return out
}

// StaticAnchorResult verifies the §4.1.2 static-power measurement that
// anchors the whole power model: 120 mW per idle core at f_max and 47 mW
// at f_min.
type StaticAnchorResult struct {
	FmaxLeakW float64
	FminLeakW float64
}

// ID implements Result.
func (*StaticAnchorResult) ID() string { return "static" }

// Title implements Result.
func (*StaticAnchorResult) Title() string {
	return "§4.1.2 static power anchor: per-core leakage at f_max and f_min"
}

// WriteText implements Result.
func (r *StaticAnchorResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "leak @ f_max voltage: %.1f mW (paper: 120 mW)\n", r.FmaxLeakW*1000)
	fmt.Fprintf(w, "leak @ f_min voltage: %.1f mW (paper: 47 mW)\n", r.FminLeakW*1000)
	return nil
}

// RunStaticAnchor evaluates the leakage curve at both anchor voltages.
func RunStaticAnchor(opt Options) (Result, error) {
	_ = opt
	plat := platform.Nexus5()
	model, err := power.NewModel(plat.Power, plat.Table)
	if err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	return &StaticAnchorResult{
		FmaxLeakW: model.LeakWatts(plat.Table.Max().Volt),
		FminLeakW: model.LeakWatts(plat.Table.Min().Volt),
	}, nil
}
