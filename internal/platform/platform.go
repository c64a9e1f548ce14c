// Package platform bundles per-device profiles: core count, OPP table,
// power-model parameters, and thermal parameters. The six profiles mirror
// the handsets stressed for Figure 1 of the thesis (Motorola mb810, Samsung
// Nexus S, Samsung Galaxy S II, LG Nexus 4, LG Nexus 5, LG G3), calibrated
// to every absolute number the paper reports:
//
//   - Nexus 5 full blast (4 cores, 100%, f_max) ≈ 2.40 W (§1.2, with the
//     paper's swapped Nexus S/Nexus 5 values corrected),
//   - Nexus S full blast ≈ 0.98 W,
//   - Nexus 5 per-core leakage 120 mW at f_max / 47 mW at f_min (§4.1.2),
//   - IR temperatures 42.1 °C (Nexus 5) vs 26.9 °C (Nexus S) at 22 °C
//     ambient (Figure 2a).
package platform

import (
	"errors"
	"fmt"
	"time"

	"mobicore/internal/power"
	"mobicore/internal/soc"
	"mobicore/internal/thermal"
)

// ClusterSpec describes one frequency domain of a device: a named group of
// identical cores with their own OPP table and power calibration. big.LITTLE
// parts carry one spec per cluster; homogeneous profiles leave
// Platform.Clusters empty and the single-cluster view is synthesized from
// the top-level fields.
type ClusterSpec struct {
	Name     string
	NumCores int
	Table    *soc.OPPTable
	Power    power.Params
	// Thermal holds the cluster's own zone parameters (trip, release, RC
	// constants) for the per-cluster thermal network. The zero value means
	// "inherit the platform-level Thermal params" so homogeneous profiles
	// and pre-existing cluster specs need not repeat them.
	Thermal thermal.Params
}

// HasThermal reports whether the spec carries its own zone parameters
// (ResistanceKPerW is mandatory for any valid Params, so it doubles as the
// presence flag).
func (cs ClusterSpec) HasThermal() bool { return cs.Thermal.ResistanceKPerW != 0 }

// Validate rejects malformed cluster specs.
func (cs ClusterSpec) Validate() error {
	if cs.Name == "" {
		return errors.New("platform: cluster needs a name")
	}
	if cs.NumCores < 1 {
		return fmt.Errorf("platform: cluster %s core count %d", cs.Name, cs.NumCores)
	}
	if cs.Table == nil || cs.Table.Len() == 0 {
		return fmt.Errorf("platform: cluster %s missing OPP table", cs.Name)
	}
	if err := cs.Power.Validate(); err != nil {
		return fmt.Errorf("platform: cluster %s: %w", cs.Name, err)
	}
	if cs.HasThermal() {
		if err := cs.Thermal.Validate(); err != nil {
			return fmt.Errorf("platform: cluster %s: %w", cs.Name, err)
		}
	}
	return nil
}

// Platform is one device profile. Treat values as immutable.
//
// On heterogeneous profiles (len(Clusters) > 1) the top-level Table and
// Power fields hold the performance cluster's values as a representative
// view for code paths that predate clusters; cluster-aware consumers must
// go through ClusterSpecs.
type Platform struct {
	Name     string
	Year     int
	NumCores int
	Table    *soc.OPPTable
	Power    power.Params
	Thermal  thermal.Params
	// ThermalCoupling is the shared-die coupling fraction of the thermal
	// network: each cluster's zone integrates its own power plus this
	// fraction of its neighbors'. Irrelevant (and conventionally zero) on
	// single-cluster profiles.
	ThermalCoupling float64
	// Clusters lists the frequency domains, efficiency cluster first (so
	// its cores get the low ids and lowest-id-first hotplug prefers them).
	// Empty means homogeneous: one implied cluster from the fields above.
	Clusters []ClusterSpec
}

// Validate checks the profile for internal consistency.
func (p Platform) Validate() error {
	if p.Name == "" {
		return errors.New("platform: empty name")
	}
	if p.NumCores < 1 {
		return fmt.Errorf("platform %s: core count %d", p.Name, p.NumCores)
	}
	if p.Table == nil || p.Table.Len() == 0 {
		return fmt.Errorf("platform %s: missing OPP table", p.Name)
	}
	if err := p.Power.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", p.Name, err)
	}
	if err := p.Thermal.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", p.Name, err)
	}
	if !(p.ThermalCoupling >= 0 && p.ThermalCoupling <= 1) {
		return fmt.Errorf("platform %s: thermal coupling %v outside [0,1]", p.Name, p.ThermalCoupling)
	}
	if len(p.Clusters) > 0 {
		sum := 0
		for _, cs := range p.Clusters {
			if err := cs.Validate(); err != nil {
				return fmt.Errorf("platform %s: %w", p.Name, err)
			}
			sum += cs.NumCores
		}
		if sum != p.NumCores {
			return fmt.Errorf("platform %s: cluster cores sum to %d, NumCores is %d", p.Name, sum, p.NumCores)
		}
	}
	return nil
}

// Heterogeneous reports whether the profile spans more than one frequency
// domain.
func (p Platform) Heterogeneous() bool { return len(p.Clusters) > 1 }

// ClusterSpecs returns the profile's frequency domains. Homogeneous
// profiles yield a single synthesized cluster named "cpu" carrying the
// top-level table and power parameters, so every consumer can treat all
// platforms uniformly.
func (p Platform) ClusterSpecs() []ClusterSpec {
	if len(p.Clusters) > 0 {
		out := make([]ClusterSpec, len(p.Clusters))
		copy(out, p.Clusters)
		return out
	}
	return []ClusterSpec{{Name: "cpu", NumCores: p.NumCores, Table: p.Table, Power: p.Power}}
}

// ClusterThermalParams returns each domain's zone parameters in cluster
// order, resolving the inherit-from-platform default: a spec without its
// own Thermal block (including the synthesized homogeneous cluster) uses
// the platform-level params.
func (p Platform) ClusterThermalParams() []thermal.Params {
	specs := p.ClusterSpecs()
	out := make([]thermal.Params, len(specs))
	for i, cs := range specs {
		if cs.HasThermal() {
			out[i] = cs.Thermal
		} else {
			out[i] = p.Thermal
		}
	}
	return out
}

// WithoutThrottle returns a copy of the platform with thermal throttling
// disabled (trip point cleared). The temperature model still integrates.
// Used by experiments that force the "highest computing state" (Fig. 1/2).
func (p Platform) WithoutThrottle() Platform {
	p.Thermal.TripC = 0
	p.Thermal.ReleaseC = 0
	if len(p.Clusters) > 0 {
		// Copy before clearing: the receiver is a value but the cluster
		// slice shares its backing array with the original profile.
		cl := make([]ClusterSpec, len(p.Clusters))
		copy(cl, p.Clusters)
		for i := range cl {
			cl[i].Thermal.TripC = 0
			cl[i].Thermal.ReleaseC = 0
		}
		p.Clusters = cl
	}
	return p
}

// ambient temperature of the paper's lab, inferred from Figure 2a.
const labAmbientC = 22.0

// Nexus5 returns the primary evaluation platform: LG Nexus 5, Snapdragon 800
// (MSM8974), 4× Krait 400, 14 OPPs from 300 MHz to 2.2656 GHz (Table 1).
func Nexus5() Platform {
	// Leakage fitted through the paper's two anchors (§4.1.2).
	leakCoeff, leakExp, err := power.FitLeak(1.2, 0.120, 0.9, 0.047)
	if err != nil {
		panic(err) // anchors are compile-time constants; cannot fail
	}
	return Platform{
		Name:     "Nexus 5",
		Year:     2013,
		NumCores: 4,
		Table:    soc.MSM8974Table(),
		Power: power.Params{
			// 440 mW dynamic at f_max: with 120 mW leak per core,
			// 80 mW base and 80 mW uncore, four cores flat out land
			// on the paper's 2.40 W.
			CeffFarads:      1.35e-10,
			LeakCoeffWatts:  leakCoeff,
			LeakExponent:    leakExp,
			OfflineWatts:    0.002,
			CacheBaseWatts:  0.040,
			CacheSlopeWatts: 0.040,
			BaseWatts:       0.080,
		},
		Thermal: thermal.Params{
			AmbientC: labAmbientC,
			// 2.40 W sustained → 42.1 °C: R = 20.1/2.40 ≈ 8.4 K/W.
			ResistanceKPerW: 8.4,
			TimeConstant:    15 * time.Second,
			// msm_thermal skin trip: sustained multi-core turbo is
			// clipped well before the die-limit — the mechanism
			// behind Figure 4's marginal core power collapse.
			TripC:      36,
			ReleaseC:   34,
			StepPeriod: time.Second,
		},
	}
}

// NexusS returns the Samsung Nexus S: single Hummingbird core at 1 GHz.
func NexusS() Platform {
	table := mustUniform(5, 200*soc.MHz, 1000*soc.MHz, 0.95, 1.25)
	return Platform{
		Name:     "Nexus S",
		Year:     2010,
		NumCores: 1,
		Table:    table,
		Power: power.Params{
			// 45 nm-class core: large C_eff, modest leakage.
			CeffFarads:      4.65e-10,
			LeakCoeffWatts:  0.046,
			LeakExponent:    2.5,
			OfflineWatts:    0.002,
			CacheBaseWatts:  0.040,
			CacheSlopeWatts: 0.030,
			BaseWatts:       0.100,
		},
		Thermal: thermal.Params{
			AmbientC: labAmbientC,
			// 0.98 W sustained → 26.9 °C: R = 4.9/0.98 = 5.0 K/W.
			ResistanceKPerW: 5.0,
			TimeConstant:    30 * time.Second,
			TripC:           0, // no thermal driver on this generation
		},
	}
}

// MotorolaMB810 returns the Motorola Droid X (mb810): single OMAP3630 core.
func MotorolaMB810() Platform {
	table := mustUniform(4, 300*soc.MHz, 1000*soc.MHz, 1.00, 1.35)
	return Platform{
		Name:     "Motorola mb810",
		Year:     2010,
		NumCores: 1,
		Table:    table,
		Power: power.Params{
			CeffFarads:      3.40e-10,
			LeakCoeffWatts:  0.033,
			LeakExponent:    2.5,
			OfflineWatts:    0.002,
			CacheBaseWatts:  0.030,
			CacheSlopeWatts: 0.030,
			BaseWatts:       0.100,
		},
		Thermal: thermal.Params{
			AmbientC:        labAmbientC,
			ResistanceKPerW: 5.5,
			TimeConstant:    30 * time.Second,
			TripC:           0,
		},
	}
}

// GalaxyS2 returns the Samsung Galaxy S II: dual Exynos 4210 cores.
func GalaxyS2() Platform {
	table := mustUniform(5, 200*soc.MHz, 1200*soc.MHz, 0.95, 1.20)
	return Platform{
		Name:     "Galaxy S II",
		Year:     2011,
		NumCores: 2,
		Table:    table,
		Power: power.Params{
			CeffFarads:      3.10e-10,
			LeakCoeffWatts:  0.058,
			LeakExponent:    2.8,
			OfflineWatts:    0.002,
			CacheBaseWatts:  0.040,
			CacheSlopeWatts: 0.040,
			BaseWatts:       0.120,
		},
		Thermal: thermal.Params{
			AmbientC:        labAmbientC,
			ResistanceKPerW: 6.0,
			TimeConstant:    28 * time.Second,
			TripC:           0,
		},
	}
}

// Nexus4 returns the LG Nexus 4: quad Krait 200 (Snapdragon S4 Pro).
func Nexus4() Platform {
	table := mustUniform(8, 384*soc.MHz, 1512*soc.MHz, 0.90, 1.15)
	return Platform{
		Name:     "Nexus 4",
		Year:     2012,
		NumCores: 4,
		Table:    table,
		Power: power.Params{
			CeffFarads:      1.90e-10,
			LeakCoeffWatts:  0.070,
			LeakExponent:    3.0,
			OfflineWatts:    0.002,
			CacheBaseWatts:  0.040,
			CacheSlopeWatts: 0.040,
			BaseWatts:       0.100,
		},
		Thermal: thermal.Params{
			AmbientC:        labAmbientC,
			ResistanceKPerW: 7.5,
			TimeConstant:    25 * time.Second,
			TripC:           42,
			ReleaseC:        40,
			StepPeriod:      time.Second,
		},
	}
}

// LGG3 returns the LG G3: quad Krait 400 (Snapdragon 801) at 2.46 GHz.
func LGG3() Platform {
	table := mustUniform(12, 300*soc.MHz, 2457600*soc.KHz, 0.90, 1.21)
	return Platform{
		Name:     "LG G3",
		Year:     2014,
		NumCores: 4,
		Table:    table,
		Power: power.Params{
			CeffFarads:      1.29e-10,
			LeakCoeffWatts:  0.072,
			LeakExponent:    3.1,
			OfflineWatts:    0.002,
			CacheBaseWatts:  0.045,
			CacheSlopeWatts: 0.045,
			BaseWatts:       0.100,
		},
		Thermal: thermal.Params{
			AmbientC:        labAmbientC,
			ResistanceKPerW: 8.0,
			TimeConstant:    25 * time.Second,
			TripC:           41,
			ReleaseC:        39,
			StepPeriod:      time.Second,
		},
	}
}

// Nexus5SharedRail returns the counterfactual platform of §4.1.2: the same
// silicon with all cores on one voltage supply. Idle cores retain state at
// a fraction of active leakage ("if we consider a platform where all cores
// are connected to the same voltage supply, there are fewer sources of
// power leakage"), but per-core DVFS is impossible, so hotplug matters
// less and race-to-idle becomes competitive. Used by the race-to-idle
// ablation to reproduce the thesis' conditional argument.
func Nexus5SharedRail() Platform {
	p := Nexus5()
	p.Name = "Nexus 5 (shared rail)"
	p.Power.IdleLeakFraction = 0.30
	return p
}

// All returns the six Figure 1 handsets ordered as the paper plots them:
// by release year, oldest first. The post-thesis big.LITTLE profile
// (Nexus6P) is not part of the Figure 1 set; find it via Profiles/ByName.
func All() []Platform {
	return []Platform{
		NexusS(),
		MotorolaMB810(),
		GalaxyS2(),
		Nexus4(),
		Nexus5(),
		LGG3(),
	}
}

// Profiles maps every canonical CLI alias to its profile constructor — the
// single source of truth the root package and ByName both resolve against,
// so the two spellings of each platform cannot drift apart.
func Profiles() map[string]func() Platform {
	return map[string]func() Platform{
		"nexus5":    Nexus5,
		"nexus-s":   NexusS,
		"mb810":     MotorolaMB810,
		"galaxy-s2": GalaxyS2,
		"nexus4":    Nexus4,
		"lg-g3":     LGG3,
		"nexus6p":   Nexus6P,
		"sd855":     SD855,
	}
}

// Alias returns the canonical CLI alias for a display name ("Nexus 5" ->
// "nexus5"), or "" if the name is unknown.
func Alias(displayName string) string {
	for alias, f := range Profiles() {
		if f().Name == displayName {
			return alias
		}
	}
	return ""
}

// ByName resolves a profile by display name ("Nexus 5") or CLI alias
// ("nexus5") — both lookup paths accept both spellings.
func ByName(name string) (Platform, error) {
	if f, ok := Profiles()[name]; ok {
		return f(), nil
	}
	for _, f := range Profiles() {
		if p := f(); p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("platform: unknown platform %q", name)
}

func mustUniform(n int, lo, hi soc.Hz, vlo, vhi soc.Volt) *soc.OPPTable {
	t, err := soc.UniformTable(n, lo, hi, vlo, vhi)
	if err != nil {
		panic(err) // static platform definitions; cannot fail
	}
	return t
}
