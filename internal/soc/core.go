package soc

import (
	"errors"
	"fmt"
)

// CoreState is the power state of a single CPU core (§2.1 of the thesis).
type CoreState int

// The three states the paper distinguishes. Active executes instructions at
// the programmed frequency; Idle is online but not executing (it still leaks
// because the rail stays up); Offline is the deepest state, consuming almost
// nothing, reachable only through hotplug.
const (
	StateOffline CoreState = iota + 1
	StateIdle
	StateActive
)

// String implements fmt.Stringer.
func (s CoreState) String() string {
	switch s {
	case StateOffline:
		return "offline"
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// Errors returned by CPU operations.
var (
	ErrInvalidCore  = errors.New("soc: invalid core id")
	ErrBadFrequency = errors.New("soc: frequency is not an operating point")
)

// CPU is a multi-core processor with per-core DVFS (each core has its own
// rail, as on the MSM8974) and hotplug, organized as one or more clusters
// (frequency domains). Per core it holds exactly what hotplug and DVFS
// set: the online flag and the programmed operating point. The ladders,
// the core→cluster map and the efficiency ranks are fixed at construction.
//
// A CPU is plain data with one owner: the simulation that built it reads
// and writes it from one goroutine, so it carries no lock. The slices
// Online, Freqs and OPPs return are the CPU's own state, current until its
// next mutation; callers read them and never write them.
type CPU struct {
	online []bool // per-core hotplug state
	freq   []Hz   // per-core programmed frequency; an offline core keeps the one it resumes at
	opp    []OPP  // per-core programmed operating point (freq with its voltage)
	gen    uint64 // bumped whenever a core's frequency or online state changes

	clusters    []Cluster
	coreCluster []int // core id -> cluster index
	coreRank    []int // core id -> efficiency rank
	numRanks    int
}

// NumCores returns the total number of cores, online or not.
func (c *CPU) NumCores() int { return len(c.online) }

// OnlineCount returns the number of online cores.
func (c *CPU) OnlineCount() int {
	n := 0
	for _, on := range c.online {
		if on {
			n++
		}
	}
	return n
}

// Online reports each core's hotplug state, indexed by core id.
func (c *CPU) Online() []bool { return c.online }

// Freqs reports each core's programmed frequency, indexed by core id.
func (c *CPU) Freqs() []Hz { return c.freq }

// OPPs reports each core's programmed operating point, indexed by core id.
func (c *CPU) OPPs() []OPP { return c.opp }

// Gen is the CPU's change signal: it moves exactly when some core's
// programmed frequency or online state changes, and never otherwise. A
// caller that derived something from the CPU's state compares Gen to tell
// whether that state may have moved since.
func (c *CPU) Gen() uint64 { return c.gen }

// SetFreq programs core id to the exact operating frequency freq, which
// must be on the ladder of the core's cluster.
func (c *CPU) SetFreq(id int, freq Hz) error {
	if id < 0 || id >= len(c.online) {
		return fmt.Errorf("%w: %d (have %d cores)", ErrInvalidCore, id, len(c.online))
	}
	return c.setFreq(id, freq)
}

// SetOnlineCount onlines/offlines cores so that exactly n are online.
// Cores are onlined lowest-id first and offlined highest-id first, the
// convention mpdecision follows (core 0 stays up). n is clamped to [1, max].
func (c *CPU) SetOnlineCount(n int) error {
	n = max(1, min(n, len(c.online)))
	online := c.OnlineCount()
	for id := 0; online < n; id++ { // online from the lowest id
		if !c.online[id] {
			c.setOnline(id, true)
			online++
		}
	}
	for id := len(c.online) - 1; online > n; id-- { // offline from the highest
		if c.online[id] {
			c.setOnline(id, false)
			online--
		}
	}
	return nil
}

// setFreq programs core id (already checked) to freq on its cluster's
// ladder.
func (c *CPU) setFreq(id int, freq Hz) error {
	table := c.clusters[c.coreCluster[id]].Table
	i := table.IndexOf(freq)
	if i < 0 {
		return fmt.Errorf("%w: %v", ErrBadFrequency, freq)
	}
	if c.freq[id] != freq {
		c.freq[id], c.opp[id] = freq, table.At(i)
		c.gen++
	}
	return nil
}

// setOnline flips core id (already checked) to the given hotplug state,
// which differs from its current one.
func (c *CPU) setOnline(id int, on bool) {
	c.online[id] = on
	c.gen++
}
