package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"mobicore/internal/platform"
	"mobicore/internal/policy"
	"mobicore/internal/thermal"
)

// Fig1Row is one handset's full-stress measurement.
type Fig1Row struct {
	Name      string
	Year      int
	Cores     int
	AvgPowerW float64
}

// Fig1Result reproduces Figure 1: the evolution of average power
// consumption across phone generations at the highest computing state.
type Fig1Result struct {
	Rows []Fig1Row
}

// ID implements Result.
func (*Fig1Result) ID() string { return "fig1" }

// Title implements Result.
func (*Fig1Result) Title() string {
	return "Figure 1: Evolution of average power consumption for different phones"
}

// WriteText implements Result.
func (r *Fig1Result) WriteText(w io.Writer) error {
	if len(r.Rows) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%-16s %5s %6s %10s\n", "phone", "year", "cores", "avg mW")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %5d %6d %10.1f\n", row.Name, row.Year, row.Cores, row.AvgPowerW*1000)
	}
	return nil
}

// RunFig1 stresses every platform profile flat out (throttle disabled, as
// the short "highest computing state" measurement) and reports average
// power, oldest phone first.
func RunFig1(opt Options) (Result, error) {
	res := &Fig1Result{Rows: make([]Fig1Row, 0, 6)}
	for _, plat := range platform.All() {
		plat = plat.WithoutThrottle()
		mgr, err := policy.Pinned(plat.Table, plat.Table.Max().Freq, plat.NumCores)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", plat.Name, err)
		}
		wl, err := stressLoop(plat.NumCores, plat.Table.Max().Freq)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", plat.Name, err)
		}
		rep, err := opt.spec(plat, mgr, wl, opt.dur(30*time.Second)).Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", plat.Name, err)
		}
		res.Rows = append(res.Rows, Fig1Row{
			Name:      plat.Name,
			Year:      plat.Year,
			Cores:     plat.NumCores,
			AvgPowerW: rep.AvgPowerW,
		})
	}
	return res, nil
}

// Fig2Row is one handset's steady-state thermal measurement.
type Fig2Row struct {
	Name       string
	AvgPowerW  float64
	SteadyC    float64
	PredictedC float64 // closed-form ambient + P·R, for cross-checking
	AmbientC   float64
	PaperTempC float64 // the IR camera reading reported in §1.2
}

// Fig2Result reproduces Figure 2(a): the IR temperature contrast between
// the single-core Nexus S and the quad-core Nexus 5 at full stress.
type Fig2Result struct {
	Rows []Fig2Row
}

// ID implements Result.
func (*Fig2Result) ID() string { return "fig2" }

// Title implements Result.
func (*Fig2Result) Title() string {
	return "Figure 2a: IR temperature of Nexus S vs Nexus 5 at the highest computing state"
}

// WriteText implements Result.
func (r *Fig2Result) WriteText(w io.Writer) error {
	if len(r.Rows) == 0 {
		return errNoData
	}
	fmt.Fprintf(w, "%-10s %9s %9s %10s %9s\n", "phone", "avg mW", "steady C", "predict C", "paper C")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %9.1f %9.1f %10.1f %9.1f\n",
			row.Name, row.AvgPowerW*1000, row.SteadyC, row.PredictedC, row.PaperTempC)
	}
	return nil
}

// RunFig2 runs both IR-imaged phones to thermal steady state at full blast
// with throttling disabled (the IR shot captures the unconstrained hot
// spot) and reports modelled temperatures next to the paper's readings.
func RunFig2(opt Options) (Result, error) {
	paperC := map[string]float64{"Nexus S": 26.9, "Nexus 5": 42.1}
	res := &Fig2Result{Rows: make([]Fig2Row, 0, 2)}
	for _, plat := range []platform.Platform{platform.NexusS(), platform.Nexus5()} {
		plat = plat.WithoutThrottle()
		mgr, err := policy.Pinned(plat.Table, plat.Table.Max().Freq, plat.NumCores)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", plat.Name, err)
		}
		wl, err := stressLoop(plat.NumCores, plat.Table.Max().Freq)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", plat.Name, err)
		}
		// Five time constants reach >99% of steady state.
		d := opt.dur(5 * plat.Thermal.TimeConstant)
		s, err := opt.spec(plat, mgr, wl, d).New()
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", plat.Name, err)
		}
		rep, err := s.Run(d)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", plat.Name, err)
		}
		zone, err := thermal.NewZone(plat.Thermal, plat.Table)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", plat.Name, err)
		}
		res.Rows = append(res.Rows, Fig2Row{
			Name:       plat.Name,
			AvgPowerW:  rep.AvgPowerW,
			SteadyC:    s.Zone().TempC(),
			PredictedC: zone.SteadyStateC(rep.AvgPowerW),
			AmbientC:   plat.Thermal.AmbientC,
			PaperTempC: paperC[plat.Name],
		})
	}
	return res, nil
}
