package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mobicore/internal/soc"
)

func nexus5Params() Params {
	return Params{
		AmbientC:        22,
		ResistanceKPerW: 8.4,
		TimeConstant:    15 * time.Second,
		TripC:           36,
		ReleaseC:        34,
		StepPeriod:      time.Second,
	}
}

func newZone(t *testing.T, p Params) *Zone {
	t.Helper()
	z, err := NewZone(p, soc.MSM8974Table())
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestParamsValidate(t *testing.T) {
	good := nexus5Params()
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero resistance", func(p *Params) { p.ResistanceKPerW = 0 }},
		{"zero time constant", func(p *Params) { p.TimeConstant = 0 }},
		{"release above trip", func(p *Params) { p.ReleaseC = p.TripC + 1 }},
		{"zero step period with trip", func(p *Params) { p.StepPeriod = 0 }},
	}
	// NaN fails every range comparison and +Inf passes the lower bounds,
	// so either once validated and ran a session to a NaN or infinite
	// temperature.
	fields := map[string]func(*Params) *float64{
		"ambient":    func(p *Params) *float64 { return &p.AmbientC },
		"resistance": func(p *Params) *float64 { return &p.ResistanceKPerW },
		"trip":       func(p *Params) *float64 { return &p.TripC },
		"release":    func(p *Params) *float64 { return &p.ReleaseC },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			tests = append(tests, struct {
				name   string
				mutate func(*Params)
			}{fmt.Sprintf("%s %v", name, v), func(p *Params) { *field(p) = v }})
		}
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := good
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	// Throttling disabled: release/step constraints do not apply.
	disabled := good
	disabled.TripC = 0
	disabled.ReleaseC = 0
	disabled.StepPeriod = 0
	if err := disabled.Validate(); err != nil {
		t.Errorf("throttle-disabled params rejected: %v", err)
	}
}

// TestSteadyStateConvergence: holding constant power, the zone converges to
// ambient + P·R — the Fig. 2a anchor (2.40 W → 42.1 °C at 22 °C ambient).
func TestSteadyStateConvergence(t *testing.T) {
	p := nexus5Params()
	p.TripC = 0 // no throttle: pure RC response
	z := newZone(t, p)
	const watts = 2.40
	for i := 0; i < 10000; i++ {
		z.Step(watts, 10*time.Millisecond)
	}
	want := 22 + watts*8.4
	if math.Abs(z.TempC()-want) > 0.1 {
		t.Errorf("steady state = %.2f C, want %.2f C", z.TempC(), want)
	}
	if math.Abs(want-42.16) > 0.2 {
		t.Errorf("anchor drifted: predicted %.2f C, paper 42.1 C", want)
	}
}

// TestExactIntegration: the exponential update must match the closed-form
// solution regardless of step size.
func TestExactIntegration(t *testing.T) {
	p := nexus5Params()
	p.TripC = 0
	coarse := newZone(t, p)
	fine := newZone(t, p)
	const watts = 2.0
	coarse.Step(watts, 10*time.Second)
	for i := 0; i < 10000; i++ {
		fine.Step(watts, time.Millisecond)
	}
	if math.Abs(coarse.TempC()-fine.TempC()) > 0.01 {
		t.Errorf("step-size dependence: coarse %.4f vs fine %.4f", coarse.TempC(), fine.TempC())
	}
}

func TestThrottleEngagesAndReleases(t *testing.T) {
	z := newZone(t, nexus5Params())
	table := soc.MSM8974Table()
	// Heat: 2.4 W steady state is 42.2 C, above the 36 C trip.
	for i := 0; i < 120; i++ {
		z.Step(2.4, time.Second)
	}
	if !z.Throttling() {
		t.Fatalf("hot zone not throttling (%.1f C)", z.TempC())
	}
	if z.CapFreq() >= table.Max().Freq {
		t.Error("throttling zone should cap below f_max")
	}
	clamped := z.Clamp(table.Max().Freq)
	if clamped >= table.Max().Freq {
		t.Errorf("Clamp(f_max) = %v, want below f_max", clamped)
	}
	// Cool: idle power drops temperature below release.
	for i := 0; i < 600; i++ {
		z.Step(0.1, time.Second)
	}
	if z.Throttling() {
		t.Errorf("cool zone still throttling (%.1f C, cap %v)", z.TempC(), z.CapFreq())
	}
	if got := z.Clamp(table.Max().Freq); got != table.Max().Freq {
		t.Errorf("released zone Clamp(f_max) = %v, want f_max", got)
	}
}

func TestThrottleDisabled(t *testing.T) {
	p := nexus5Params()
	p.TripC = 0
	z := newZone(t, p)
	for i := 0; i < 600; i++ {
		z.Step(3.0, time.Second)
	}
	if z.Throttling() {
		t.Error("disabled throttle engaged")
	}
	if got, want := z.Clamp(2_265_600*soc.KHz), 2_265_600*soc.KHz; got != want {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
}

func TestHysteresisHoldsBetweenReleaseAndTrip(t *testing.T) {
	z := newZone(t, nexus5Params())
	// Drive above trip to engage.
	for i := 0; i < 60; i++ {
		z.Step(2.4, time.Second)
	}
	if !z.Throttling() {
		t.Fatal("not throttling after sustained heat")
	}
	capBefore := z.CapFreq()
	// Hold power such that temperature sits between release (34) and
	// trip (36): P = (35-22)/8.4 ≈ 1.55 W.
	for i := 0; i < 120; i++ {
		z.Step(1.55, time.Second)
	}
	if z.TempC() < 34 || z.TempC() > 36 {
		t.Fatalf("test setup wrong: temp %.1f outside hysteresis band", z.TempC())
	}
	if got := z.CapFreq(); got > capBefore {
		t.Errorf("cap rose inside hysteresis band: %v > %v", got, capBefore)
	}
}

func TestReset(t *testing.T) {
	z := newZone(t, nexus5Params())
	for i := 0; i < 120; i++ {
		z.Step(2.4, time.Second)
	}
	z.Reset()
	if z.TempC() != 22 {
		t.Errorf("reset temp = %.1f, want ambient", z.TempC())
	}
	if z.Throttling() {
		t.Error("reset zone still throttling")
	}
}

// TestTemperatureBoundedProperty: temperature never exceeds the maximum of
// current temperature and the steady state of the applied power, and never
// goes below ambient for non-negative power.
func TestTemperatureBoundedProperty(t *testing.T) {
	p := nexus5Params()
	p.TripC = 0
	prop := func(steps []uint8) bool {
		z, err := NewZone(p, soc.MSM8974Table())
		if err != nil {
			return false
		}
		for _, s := range steps {
			watts := float64(s) / 64.0 // 0..4 W
			before := z.TempC()
			z.Step(watts, 100*time.Millisecond)
			after := z.TempC()
			upper := math.Max(before, z.SteadyStateC(watts))
			if after > upper+1e-9 || after < p.AmbientC-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
