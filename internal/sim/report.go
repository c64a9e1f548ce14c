package sim

import (
	"fmt"
	"io"
	"time"

	"mobicore/internal/metrics"
	"mobicore/internal/monsoon"
	"mobicore/internal/soc"
	"mobicore/internal/thermal"
	"mobicore/internal/workload"
)

// Report summarizes a simulation session — the quantities the thesis plots:
// average power, average per-core frequency, average online core count,
// average utilization, temperature, and execution volume.
type Report struct {
	Policy   string
	Platform string
	// Placer names the scheduler placement rule the session ran under
	// ("greedy" or "eas").
	Placer   string
	Duration time.Duration

	AvgPowerW  float64
	PeakPowerW float64
	EnergyJ    float64

	AvgFreqHz      float64
	AvgOnlineCores float64
	AvgUtil        float64
	AvgQuota       float64

	AvgTempC float64
	MaxTempC float64

	ExecutedCycles    float64
	QuotaThrottledSec float64
	// ThermalCappedSec is the aggregate thermal residency: the sum of
	// per-cluster capped time (a single-zone platform reports exactly the
	// old single-zone figure; on big.LITTLE two simultaneously capped
	// clusters both count).
	ThermalCappedSec   float64
	PerWorkloadCycles  map[string]float64
	PerWorkloadPending map[string]float64

	FreqSeries  metrics.Series
	CoreSeries  metrics.Series
	UtilSeries  metrics.Series
	QuotaSeries metrics.Series
	// TempSeries tracks the hottest zone — the die-wide view the flat
	// thermal model used to report.
	TempSeries metrics.Series

	// Per-cluster views, indexed like the platform's ClusterSpecs.
	// Homogeneous platforms carry a single entry mirroring the aggregate.
	ClusterNames      []string
	AvgClusterFreqHz  []float64
	AvgClusterCores   []float64
	AvgClusterTempC   []float64
	MaxClusterTempC   []float64
	ClusterThermalSec []float64 // per-cluster thermal-cap residency
	// ClusterEnergyJ attributes the session's energy to each cluster:
	// the integral of the cluster's own share of system power (cores +
	// uncore; the platform floor is excluded and accounted once in
	// EnergyJ). Summing ClusterEnergyJ plus floor×duration reproduces
	// EnergyJ.
	ClusterEnergyJ    []float64
	ClusterFreqSeries []metrics.Series
	ClusterCoreSeries []metrics.Series
	ClusterTempSeries []metrics.Series
	// ClusterEnergySeries tracks each cluster's cumulative attributed
	// joules at every policy sample — the energy-attribution trace the
	// EAS placement experiments plot.
	ClusterEnergySeries []metrics.Series
}

// report builds the session report from the current accumulators. Every
// series is deep copied (metrics.Series.Clone) so the report stays valid
// after the Sim's buffers are reused for the next arena session — reports
// outlive sims by design.
func (s *Sim) report() *Report {
	r := &Report{
		Policy:              s.spec.Manager.Name(),
		Platform:            s.spec.Platform.Name,
		Placer:              s.spec.Placer,
		Duration:            s.now,
		AvgPowerW:           s.mon.AverageWatts(),
		PeakPowerW:          s.mon.TraceSummary().Max(),
		EnergyJ:             s.mon.Joules(),
		AvgFreqHz:           s.freqSum.Mean(),
		AvgOnlineCores:      s.coreSum.Mean(),
		AvgUtil:             s.utilSum.Mean(),
		AvgQuota:            s.quotaSum.Mean(),
		AvgTempC:            s.tempSum.Mean(),
		MaxTempC:            s.tempSum.Max(),
		ExecutedCycles:      s.executed,
		QuotaThrottledSec:   s.throttledSec,
		ThermalCappedSec:    s.thermalSec,
		PerWorkloadCycles:   make(map[string]float64, len(s.spec.Workloads)),
		PerWorkloadPending:  make(map[string]float64, len(s.spec.Workloads)),
		FreqSeries:          s.freqSeries.Clone(),
		CoreSeries:          s.coreSeries.Clone(),
		UtilSeries:          s.utilSeries.Clone(),
		QuotaSeries:         s.quotaSeries.Clone(),
		TempSeries:          s.tempSeries.Clone(),
		ClusterThermalSec:   append([]float64(nil), s.clusterThermalSec...),
		ClusterEnergyJ:      append([]float64(nil), s.clusterEnergyJ...),
		ClusterFreqSeries:   cloneSeries(s.clusterFreqSeries),
		ClusterCoreSeries:   cloneSeries(s.clusterCoreSeries),
		ClusterTempSeries:   cloneSeries(s.clusterTempSeries),
		ClusterEnergySeries: cloneSeries(s.clusterEnergySeries),
	}
	for ci, v := range s.views {
		r.ClusterNames = append(r.ClusterNames, v.Name)
		r.AvgClusterFreqHz = append(r.AvgClusterFreqHz, s.clusterFreqSum[ci].Mean())
		r.AvgClusterCores = append(r.AvgClusterCores, s.clusterCoreSum[ci].Mean())
		r.AvgClusterTempC = append(r.AvgClusterTempC, s.clusterTempSum[ci].Mean())
		r.MaxClusterTempC = append(r.MaxClusterTempC, s.clusterTempSum[ci].Max())
	}
	for _, w := range s.spec.Workloads {
		r.PerWorkloadCycles[w.Name()] += workload.ExecutedCycles(w)
		r.PerWorkloadPending[w.Name()] += workload.PendingCycles(w)
	}
	return r
}

// cloneSeries deep copies a per-cluster series slice for a report.
func cloneSeries(in []metrics.Series) []metrics.Series {
	if len(in) == 0 {
		return nil
	}
	out := make([]metrics.Series, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

// Monitor exposes the power meter for trace export.
func (s *Sim) Monitor() *monsoon.Monitor { return s.mon }

// WriteSummary renders the report as aligned human-readable text.
func (r *Report) WriteSummary(w io.Writer) error {
	_, err := fmt.Fprintf(w, `policy:          %s
platform:        %s
duration:        %v
avg power:       %.1f mW
peak power:      %.1f mW
energy:          %.2f J
avg frequency:   %s
avg cores:       %.2f
avg utilization: %.1f%%
avg quota:       %.2f
avg temp:        %.1f C (max %.1f C)
executed:        %.3g cycles
quota throttled: %.2f core-s
thermal capped:  %.2f s
`,
		r.Policy, r.Platform, r.Duration,
		r.AvgPowerW*1000, r.PeakPowerW*1000, r.EnergyJ,
		soc.Hz(r.AvgFreqHz), r.AvgOnlineCores, r.AvgUtil*100, r.AvgQuota,
		r.AvgTempC, r.MaxTempC, r.ExecutedCycles,
		r.QuotaThrottledSec, r.ThermalCappedSec)
	if err != nil {
		return fmt.Errorf("sim: writing summary: %w", err)
	}
	// The placer line appears only for non-default placement, so greedy
	// sessions (the compatibility baseline) render byte-identically.
	if r.Placer != "" && r.Placer != "greedy" {
		if _, err := fmt.Fprintf(w, "placer:          %s\n", r.Placer); err != nil {
			return fmt.Errorf("sim: writing summary: %w", err)
		}
	}
	if len(r.ClusterNames) > 1 {
		for ci, name := range r.ClusterNames {
			energy := 0.0
			if ci < len(r.ClusterEnergyJ) {
				energy = r.ClusterEnergyJ[ci]
			}
			_, err := fmt.Fprintf(w, "cluster %-8s avg freq %s, avg cores %.2f, avg temp %.1f C (max %.1f C), thermal capped %.2f s, energy %.2f J\n",
				name+":", soc.Hz(r.AvgClusterFreqHz[ci]), r.AvgClusterCores[ci],
				r.AvgClusterTempC[ci], r.MaxClusterTempC[ci], r.ClusterThermalSec[ci], energy)
			if err != nil {
				return fmt.Errorf("sim: writing summary: %w", err)
			}
		}
	}
	return nil
}

// Network exposes the per-cluster thermal network for experiments that read
// zone temperatures and caps mid-run.
func (s *Sim) Network() *thermal.Network { return s.net }

// Zone exposes the currently hottest thermal zone — on a single-zone
// platform the whole die, on big.LITTLE the cluster that dominates the
// die's thermal story — for experiments that predate the per-cluster
// network.
func (s *Sim) Zone() *thermal.Zone {
	hottest := 0
	for i := 1; i < s.net.Zones(); i++ {
		if s.net.TempC(i) > s.net.TempC(hottest) {
			hottest = i
		}
	}
	return s.net.ZoneAt(hottest)
}
