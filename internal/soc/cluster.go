package soc

import (
	"errors"
	"fmt"
	"sort"
)

// Cluster describes one frequency domain of a CPU: a group of identical
// cores sharing an OPP table, as in a big.LITTLE SoC where the A53 and A57
// clusters each have their own frequency ladder. A homogeneous CPU is the
// degenerate single-cluster case.
type Cluster struct {
	// Name identifies the cluster in reports, e.g. "LITTLE" or "big".
	Name string
	// NumCores is the number of cores in the cluster.
	NumCores int
	// Table is the cluster's private OPP table.
	Table *OPPTable
}

// Validate rejects malformed cluster definitions.
func (cl Cluster) Validate() error {
	if cl.Name == "" {
		return errors.New("soc: cluster needs a name")
	}
	if cl.NumCores < 1 {
		return fmt.Errorf("soc: cluster %s core count %d", cl.Name, cl.NumCores)
	}
	if cl.Table == nil || cl.Table.Len() == 0 {
		return fmt.Errorf("soc: cluster %s: %w", cl.Name, ErrEmptyTable)
	}
	return nil
}

// Errors specific to cluster operations.
var (
	ErrInvalidCluster = errors.New("soc: invalid cluster index")
	ErrNoOnlineCore   = errors.New("soc: at least one core must stay online")
)

// NewClusteredCPU builds a CPU from an ordered list of clusters. Core ids
// are assigned contiguously in cluster order, so listing the LITTLE cluster
// first gives it the low core ids — the msm8994-style numbering that makes
// lowest-id-first hotplug prefer the efficient cores. All cores start
// online at their cluster's minimum frequency.
func NewClusteredCPU(clusters []Cluster) (*CPU, error) {
	if len(clusters) == 0 {
		return nil, errors.New("soc: need at least one cluster")
	}
	total := 0
	for _, cl := range clusters {
		if err := cl.Validate(); err != nil {
			return nil, err
		}
		total += cl.NumCores
	}
	cs := make([]Cluster, len(clusters))
	copy(cs, clusters)
	c := &CPU{
		online:      make([]bool, 0, total),
		freq:        make([]Hz, 0, total),
		opp:         make([]OPP, 0, total),
		clusters:    cs,
		coreCluster: make([]int, 0, total),
	}
	for ci, cl := range cs {
		boot := cl.Table.Min()
		for i := 0; i < cl.NumCores; i++ {
			c.online = append(c.online, true)
			c.freq = append(c.freq, boot.Freq)
			c.opp = append(c.opp, boot)
			c.coreCluster = append(c.coreCluster, ci)
		}
	}
	c.computeRanks()
	return c, nil
}

// computeRanks caches the efficiency rank of every core: clusters ordered
// by ascending top frequency (ties keep cluster-id order), rank 0 the most
// efficient. A one-cluster CPU has every core at rank 0. The topology is
// fixed at construction, so schedulers can read the ranks every window
// without re-deriving them.
func (c *CPU) computeRanks() {
	order := make([]int, len(c.clusters))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.clusters[order[a]].Table.Max().Freq < c.clusters[order[b]].Table.Max().Freq
	})
	rankOfCluster := make([]int, len(c.clusters))
	for rank, ci := range order {
		rankOfCluster[ci] = rank
	}
	c.coreRank = make([]int, len(c.coreCluster))
	for id, ci := range c.coreCluster {
		c.coreRank[id] = rankOfCluster[ci]
	}
	c.numRanks = len(c.clusters)
}

// ClusterRanks returns the per-core efficiency ranks (all 0 on a
// one-cluster CPU) and the number of ranks. The slice is shared and must
// not be mutated.
func (c *CPU) ClusterRanks() ([]int, int) { return c.coreRank, c.numRanks }

// ClusterOnlineCount returns the number of online cores in cluster ci.
func (c *CPU) ClusterOnlineCount(ci int) (int, error) {
	if ci < 0 || ci >= len(c.clusters) {
		return 0, fmt.Errorf("%w: %d (have %d clusters)", ErrInvalidCluster, ci, len(c.clusters))
	}
	n := 0
	lo, hi := c.clusterBounds(ci)
	for _, on := range c.online[lo:hi] {
		if on {
			n++
		}
	}
	return n, nil
}

// SetClusterFreq programs every core of cluster ci to freq — the
// one-clock-per-cluster arrangement of real big.LITTLE parts (each cluster
// is one cpufreq policy domain). Offline cores are programmed too, so they
// resume at the domain frequency. freq must be an operating point of the
// cluster's table.
func (c *CPU) SetClusterFreq(ci int, freq Hz) error {
	if ci < 0 || ci >= len(c.clusters) {
		return fmt.Errorf("%w: %d (have %d clusters)", ErrInvalidCluster, ci, len(c.clusters))
	}
	if c.clusters[ci].Table.IndexOf(freq) < 0 {
		return fmt.Errorf("%w: %v (cluster %s)", ErrBadFrequency, freq, c.clusters[ci].Name)
	}
	lo, hi := c.clusterBounds(ci)
	for id := lo; id < hi; id++ {
		if err := c.setFreq(id, freq); err != nil {
			return err
		}
	}
	return nil
}

// SetClusterOnlineCount onlines/offlines cores within cluster ci so that
// exactly n of its cores are online. Unlike the flat SetOnlineCount, n may
// be 0: a whole cluster can be parked (big cores gated while the LITTLE
// cluster carries the phone), as long as at least one core somewhere on the
// SoC stays online. Cores are onlined lowest-id first and offlined
// highest-id first within the cluster.
func (c *CPU) SetClusterOnlineCount(ci, n int) error {
	if ci < 0 || ci >= len(c.clusters) {
		return fmt.Errorf("%w: %d (have %d clusters)", ErrInvalidCluster, ci, len(c.clusters))
	}
	n = max(0, min(n, c.clusters[ci].NumCores))
	onlineIn, _ := c.ClusterOnlineCount(ci)
	if n == 0 && c.OnlineCount() == onlineIn {
		return ErrNoOnlineCore
	}
	lo, hi := c.clusterBounds(ci)
	for id := lo; onlineIn < n; id++ { // online from the lowest id
		if !c.online[id] {
			c.setOnline(id, true)
			onlineIn++
		}
	}
	for id := hi - 1; onlineIn > n; id-- { // offline from the highest
		if c.online[id] {
			c.setOnline(id, false)
			onlineIn--
		}
	}
	return nil
}

// clusterBounds returns cluster ci's core ids as the half-open range
// [lo, hi): NewClusteredCPU numbers cores contiguously in cluster order.
// The caller has already checked ci.
func (c *CPU) clusterBounds(ci int) (lo, hi int) {
	for _, cl := range c.clusters[:ci] {
		lo += cl.NumCores
	}
	return lo, lo + c.clusters[ci].NumCores
}
