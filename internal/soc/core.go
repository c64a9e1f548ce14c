package soc

import (
	"errors"
	"fmt"
	"sync"
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

// Errors returned by core and CPU operations.
var (
	ErrLastCore     = errors.New("soc: cannot offline the last online core")
	ErrInvalidCore  = errors.New("soc: invalid core id")
	ErrBadFrequency = errors.New("soc: frequency is not an operating point")
)

// Core is one CPU core: its online state and programmed operating point,
// the two things hotplug and DVFS set. The CPU never marks a core Active
// (an online core is Idle here); whether a core executed in a window is the
// scheduler's to say, and it writes Active/Idle into the snapshot it
// scheduled against. Core is not safe for concurrent use; the owning CPU
// serializes access.
type Core struct {
	id    int
	table *OPPTable

	state CoreState
	opp   OPP
}

// newCore constructs an online, idle core at the table's minimum frequency.
func newCore(id int, table *OPPTable) *Core {
	return &Core{id: id, table: table, state: StateIdle, opp: table.Min()}
}

// ID returns the core's index within its CPU.
func (c *Core) ID() int { return c.id }

// State returns the core's current power state.
func (c *Core) State() CoreState { return c.state }

// Online reports whether the core is idle or active.
func (c *Core) Online() bool { return c.state != StateOffline }

// Freq returns the core's programmed frequency. Offline cores report the
// frequency they will resume at.
func (c *Core) Freq() Hz { return c.opp.Freq }

// Volt returns the supply voltage of the core's programmed operating point.
func (c *Core) Volt() Volt { return c.opp.Volt }

// OPP returns the core's full programmed operating point.
func (c *Core) OPP() OPP { return c.opp }

// setFreq programs an exact operating point.
func (c *Core) setFreq(freq Hz) error {
	i := c.table.IndexOf(freq)
	if i < 0 {
		return fmt.Errorf("%w: %v", ErrBadFrequency, freq)
	}
	c.opp = c.table.At(i)
	return nil
}

// CPU is a multi-core processor with per-core DVFS (each core has its own
// rail, as on the MSM8974) and hotplug, organized as one or more clusters
// (frequency domains). CPU is safe for concurrent use.
type CPU struct {
	mu          sync.Mutex
	cores       []*Core
	clusters    []Cluster
	coreCluster []int // core id -> cluster index
	coreRank    []int // core id -> efficiency rank
	numRanks    int
}

// NumCores returns the total number of cores, online or not.
func (c *CPU) NumCores() int { return len(c.cores) }

// OnlineCount returns the number of online cores.
func (c *CPU) OnlineCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, core := range c.cores {
		if core.Online() {
			n++
		}
	}
	return n
}

// CoreSnapshot is an immutable view of one core, safe to hold across ticks.
// A CPU reports an online core as StateIdle; the scheduler overwrites State
// with StateActive or StateIdle in the snapshot it schedules against.
type CoreSnapshot struct {
	ID      int
	Cluster int // owning cluster index; 0 on homogeneous CPUs
	State   CoreState
	Freq    Hz
	Volt    Volt
}

// Snapshot captures the state of every core.
func (c *CPU) Snapshot() []CoreSnapshot {
	return c.SnapshotInto(nil)
}

// SnapshotInto is Snapshot writing into dst when it has the capacity,
// so per-tick callers can reuse one buffer and keep the hot loop
// allocation-free. It returns the filled slice (dst's backing array
// when it fits, a fresh one otherwise).
//
//mobicore:hotpath
func (c *CPU) SnapshotInto(dst []CoreSnapshot) []CoreSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cap(dst) < len(c.cores) {
		//mobilint:ignore one-time buffer growth; steady-state callers pass a full-size buffer
		dst = make([]CoreSnapshot, len(c.cores))
	}
	dst = dst[:len(c.cores)]
	for i, core := range c.cores {
		dst[i] = CoreSnapshot{
			ID:      core.id,
			Cluster: c.coreCluster[i],
			State:   core.state,
			Freq:    core.opp.Freq,
			Volt:    core.opp.Volt,
		}
	}
	return dst
}

// SetFreq programs core id to the exact operating frequency freq.
func (c *CPU) SetFreq(id int, freq Hz) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	core, err := c.core(id)
	if err != nil {
		return err
	}
	return core.setFreq(freq)
}

// SetFreqAll programs every online core to freq (global DVFS). freq must be
// an operating point of every cluster's table, so on heterogeneous CPUs use
// SetClusterFreq per domain instead.
func (c *CPU) SetFreqAll(freq Hz) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.clusters {
		if cl.Table.IndexOf(freq) < 0 {
			return fmt.Errorf("%w: %v (cluster %s)", ErrBadFrequency, freq, cl.Name)
		}
	}
	for _, core := range c.cores {
		if core.Online() {
			if err := core.setFreq(freq); err != nil {
				return err
			}
		}
	}
	return nil
}

// Freq returns core id's programmed frequency.
func (c *CPU) Freq(id int) (Hz, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	core, err := c.core(id)
	if err != nil {
		return 0, err
	}
	return core.opp.Freq, nil
}

// Online brings core id online (into the idle state). Bringing an online
// core online is a no-op, matching the kernel's hotplug semantics.
func (c *CPU) Online(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	core, err := c.core(id)
	if err != nil {
		return err
	}
	if core.state == StateOffline {
		core.state = StateIdle
	}
	return nil
}

// Offline removes core id from service. The last online core cannot be
// offlined: the kernel forbids it and so do we, because a zero-core system
// has no meaning.
func (c *CPU) Offline(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	core, err := c.core(id)
	if err != nil {
		return err
	}
	if core.state == StateOffline {
		return nil
	}
	online := 0
	for _, other := range c.cores {
		if other.Online() {
			online++
		}
	}
	if online <= 1 {
		return ErrLastCore
	}
	core.state = StateOffline
	return nil
}

// SetOnlineCount onlines/offlines cores so that exactly n are online.
// Cores are onlined lowest-id first and offlined highest-id first, the
// convention mpdecision follows (core 0 stays up). n is clamped to [1, max].
func (c *CPU) SetOnlineCount(n int) error {
	if n < 1 {
		n = 1
	}
	if n > len(c.cores) {
		n = len(c.cores)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	online := 0
	for _, core := range c.cores {
		if core.Online() {
			online++
		}
	}
	// Online additional cores from the lowest id.
	for i := 0; online < n && i < len(c.cores); i++ {
		if !c.cores[i].Online() {
			c.cores[i].state = StateIdle
			online++
		}
	}
	// Offline surplus cores from the highest id.
	for i := len(c.cores) - 1; online > n && i > 0; i-- {
		if c.cores[i].Online() {
			c.cores[i].state = StateOffline
			online--
		}
	}
	return nil
}

func (c *CPU) core(id int) (*Core, error) {
	if id < 0 || id >= len(c.cores) {
		return nil, fmt.Errorf("%w: %d (have %d cores)", ErrInvalidCore, id, len(c.cores))
	}
	return c.cores[id], nil
}
