package thermal

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mobicore/internal/soc"
)

// Network joins per-cluster thermal zones on one die. Each zone integrates
// its own cluster's power plus a configurable fraction of its neighbors'
// (the shared-die coupling: heat spreads laterally through the substrate),
// and drives its own msm_thermal-style cap on its cluster's OPP ladder.
//
// This is the physically honest model for an asymmetric part like the
// Snapdragon 810: the A57 cluster's zone reaches its trip long before the
// A53s', so the big cores throttle while the LITTLE cores run uncapped —
// the behaviour a single die-wide zone (which caps every domain at once)
// cannot express. A single-zone network degenerates exactly to the flat
// Zone model: with no neighbors the coupling term is identically zero and
// Step reduces to Zone.Step bit for bit.
//
// Not safe for concurrent use; owned by the simulation loop.
type Network struct {
	zones    []*Zone
	coupling float64
}

// NewNetwork builds one zone per cluster from parallel params/tables slices.
// coupling in [0,1] is the fraction of every other zone's power each zone
// additionally integrates (0 = thermally isolated islands, 1 = one shared
// die where every zone sees all power).
func NewNetwork(params []Params, tables []*soc.OPPTable, coupling float64) (*Network, error) {
	if len(params) == 0 {
		return nil, errors.New("thermal: network needs at least one zone")
	}
	if len(params) != len(tables) {
		return nil, fmt.Errorf("thermal: %d zone params for %d tables", len(params), len(tables))
	}
	if coupling < 0 || coupling > 1 {
		return nil, fmt.Errorf("thermal: coupling %v outside [0,1]", coupling)
	}
	zones := make([]*Zone, len(params))
	for i := range params {
		z, err := NewZone(params[i], tables[i])
		if err != nil {
			return nil, fmt.Errorf("thermal: zone %d: %w", i, err)
		}
		zones[i] = z
	}
	return &Network{zones: zones, coupling: coupling}, nil
}

// Zones returns the number of zones in the network.
func (n *Network) Zones() int { return len(n.zones) }

// ZoneAt returns zone i for callers that need the full per-zone API.
func (n *Network) ZoneAt(i int) *Zone { return n.zones[i] }

// Step advances every zone by dt. watts carries each zone's own cluster
// power, indexed like the zones; zone i integrates
// watts[i] + coupling·Σ_{j≠i} watts[j].
func (n *Network) Step(watts []float64, dt time.Duration) error {
	if len(watts) != len(n.zones) {
		return fmt.Errorf("thermal: %d watt entries for %d zones", len(watts), len(n.zones))
	}
	var sum float64
	for _, w := range watts {
		sum += w
	}
	for i, z := range n.zones {
		z.Step(watts[i]+n.coupling*(sum-watts[i]), dt)
	}
	return nil
}

// TempC returns zone i's current temperature.
func (n *Network) TempC(i int) float64 { return n.zones[i].TempC() }

// MaxTempC returns the hottest zone's temperature — the aggregate the
// single-zone model used to report.
func (n *Network) MaxTempC() float64 {
	max := math.Inf(-1)
	for _, z := range n.zones {
		if t := z.TempC(); t > max {
			max = t
		}
	}
	return max
}

// Throttling reports whether zone i's cap is engaged below its ladder max.
func (n *Network) Throttling(i int) bool { return n.zones[i].Throttling() }

// CapFreq returns zone i's current frequency cap on its own ladder.
func (n *Network) CapFreq(i int) soc.Hz { return n.zones[i].CapFreq() }

// HeadroomC returns zone i's margin to its trip point in °C — the
// governor-visible thermal-pressure signal. Negative while above trip,
// +Inf when the zone's throttle is disabled.
func (n *Network) HeadroomC(i int) float64 { return n.zones[i].HeadroomC() }

// Clamp applies zone i's cap to a requested frequency on the zone's own
// cluster ladder.
func (n *Network) Clamp(i int, req soc.Hz) soc.Hz { return n.zones[i].Clamp(req) }

// CapGen sums every zone's cap generation: the result changes whenever any
// zone's throttle cap moves, so per-tick callers can skip re-clamping while
// it holds still.
//
//mobicore:hotpath
func (n *Network) CapGen() uint64 {
	var g uint64
	for _, z := range n.zones {
		g += z.capGen
	}
	return g
}

// Reset returns every zone to ambient with no cap.
func (n *Network) Reset() {
	for _, z := range n.zones {
		z.Reset()
	}
}
