// Package thermal models the die/skin temperature of the handset with a
// first-order RC network and implements an msm_thermal-style frequency-cap
// throttle. The thermal path matters twice in the thesis: Figure 2's IR
// contrast between the Nexus S and Nexus 5, and the sub-linear core scaling
// of Figure 4, which on real hardware is largely the thermal driver clipping
// sustained multi-core turbo.
package thermal

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mobicore/internal/soc"
)

// Params describes one platform's thermal characteristics.
type Params struct {
	// AmbientC is the environment temperature in °C.
	AmbientC float64
	// ResistanceKPerW is the steady-state thermal resistance from the CPU
	// area to ambient: T_ss = ambient + P · R.
	ResistanceKPerW float64
	// TimeConstant is the RC time constant τ; the die covers ~63% of the
	// distance to steady state in one τ.
	TimeConstant time.Duration

	// TripC engages throttling; ReleaseC disengages it (hysteresis).
	// Setting TripC to 0 (or +Inf semantics via a huge value) disables
	// throttling.
	TripC    float64
	ReleaseC float64
	// StepPeriod is how often the throttle moves the cap by one OPP.
	StepPeriod time.Duration
}

// Validate reports the first nonsensical field; a NaN or infinite
// temperature or resistance is nonsensical too.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AmbientC", p.AmbientC}, {"ResistanceKPerW", p.ResistanceKPerW}, {"TripC", p.TripC}, {"ReleaseC", p.ReleaseC},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("thermal: %s is %v, want a finite value", f.name, f.v)
		}
	}
	switch {
	case p.ResistanceKPerW <= 0:
		return errors.New("thermal: ResistanceKPerW must be positive")
	case p.TimeConstant <= 0:
		return errors.New("thermal: TimeConstant must be positive")
	case p.TripC != 0 && p.ReleaseC > p.TripC:
		return errors.New("thermal: ReleaseC must not exceed TripC")
	case p.TripC != 0 && p.StepPeriod <= 0:
		return errors.New("thermal: StepPeriod must be positive when throttling")
	}
	return nil
}

// Zone integrates temperature and drives the throttle cap. Not safe for
// concurrent use; owned by the simulation loop.
type Zone struct {
	params Params
	table  *soc.OPPTable

	tempC      float64
	capIndex   int // index into the OPP table; len-1 means uncapped
	sinceStep  time.Duration
	throttling bool

	// alpha caches the exact-integration coefficient 1−e^(−dt/τ) for the
	// last step size seen. Simulation loops step with a fixed tick, so the
	// exp evaluation happens once per session instead of once per tick; a
	// recomputed coefficient for the same dt is the identical float, so
	// caching never changes a trajectory.
	alphaDt time.Duration
	alpha   float64

	// capGen counts cap movements. The simulation compares generations to
	// skip re-clamping frequencies on the (vast majority of) steps where
	// the throttle did not move.
	capGen uint64
}

// NewZone builds a thermal zone starting at ambient with no cap.
func NewZone(params Params, table *soc.OPPTable) (*Zone, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if table == nil || table.Len() == 0 {
		return nil, soc.ErrEmptyTable
	}
	return &Zone{
		params:   params,
		table:    table,
		tempC:    params.AmbientC,
		capIndex: table.Len() - 1,
	}, nil
}

// TempC returns the current modelled temperature.
func (z *Zone) TempC() float64 { return z.tempC }

// Throttling reports whether the cap is currently engaged below max.
func (z *Zone) Throttling() bool { return z.capIndex < z.table.Len()-1 }

// CapFreq returns the maximum frequency currently allowed.
func (z *Zone) CapFreq() soc.Hz { return z.table.At(z.capIndex).Freq }

// SteadyStateC returns the temperature the zone converges to if watts are
// held forever: ambient + P·R.
func (z *Zone) SteadyStateC(watts float64) float64 {
	return z.params.AmbientC + watts*z.params.ResistanceKPerW
}

// HeadroomC returns the margin to the trip point in °C: positive while the
// zone is cool, negative above trip, +Inf when throttling is disabled. This
// is the thermal-pressure signal governors consume.
func (z *Zone) HeadroomC() float64 {
	if z.params.TripC == 0 {
		return math.Inf(1)
	}
	return z.params.TripC - z.tempC
}

// Step advances the model by dt under a dissipation of watts and updates
// the throttle cap. dT/dt = (T_ss − T)/τ, integrated exactly.
func (z *Zone) Step(watts float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	tss := z.SteadyStateC(watts)
	if dt != z.alphaDt {
		z.alphaDt = dt
		z.alpha = 1 - math.Exp(-dt.Seconds()/z.params.TimeConstant.Seconds())
	}
	z.tempC += (tss - z.tempC) * z.alpha

	if z.params.TripC == 0 {
		return // throttling disabled
	}
	z.sinceStep += dt
	if z.sinceStep < z.params.StepPeriod {
		return
	}
	z.sinceStep = 0
	switch {
	case z.tempC >= z.params.TripC:
		z.throttling = true
		if z.capIndex > 0 {
			z.capIndex--
			z.capGen++
		}
	case z.tempC <= z.params.ReleaseC:
		z.throttling = false
		if z.capIndex < z.table.Len()-1 {
			z.capIndex++
			z.capGen++
		}
	case z.throttling:
		// Between release and trip while hot: hold the cap.
	}
}

// CapGen returns a counter that advances every time the throttle cap moves
// (in either direction). Callers that cache clamped frequencies can compare
// generations instead of re-clamping on every step.
func (z *Zone) CapGen() uint64 { return z.capGen }

// Clamp applies the current cap to a requested frequency, returning the
// highest allowed operating point at or below the request.
func (z *Zone) Clamp(req soc.Hz) soc.Hz {
	return z.ClampOn(z.table, req)
}

// ClampOn applies the current cap to a request, resolving the capped value
// onto table — on a big.LITTLE part one skin sensor caps every frequency
// domain, but each domain snaps to its own ladder.
func (z *Zone) ClampOn(table *soc.OPPTable, req soc.Hz) soc.Hz {
	cap := z.CapFreq()
	if req <= cap {
		return req
	}
	return table.FloorFreq(cap).Freq
}

// Reset returns the zone to ambient with no cap. The cap generation
// advances (the cap may have moved), so generation-caching callers re-clamp.
func (z *Zone) Reset() {
	z.tempC = z.params.AmbientC
	z.capIndex = z.table.Len() - 1
	z.sinceStep = 0
	z.throttling = false
	z.capGen++
}
