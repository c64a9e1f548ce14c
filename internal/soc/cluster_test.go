package soc

import (
	"errors"
	"testing"
)

func testClusters(t *testing.T) []Cluster {
	t.Helper()
	little, err := UniformTable(4, 200*MHz, 1000*MHz, 0.80, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	big, err := UniformTable(5, 300*MHz, 2000*MHz, 0.85, 1.20)
	if err != nil {
		t.Fatal(err)
	}
	return []Cluster{
		{Name: "LITTLE", NumCores: 4, Table: little},
		{Name: "big", NumCores: 2, Table: big},
	}
}

func TestNewClusteredCPUTopology(t *testing.T) {
	cpu, err := NewClusteredCPU(testClusters(t))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.NumCores() != 6 {
		t.Fatalf("NumCores = %d, want 6", cpu.NumCores())
	}
	// LITTLE first: cores 0-3 boot at its minimum, 4-5 at big's.
	for id, f := range cpu.Freqs() {
		want := 200 * MHz
		if id >= 4 {
			want = 300 * MHz
		}
		if f != want {
			t.Errorf("core %d boot freq = %v, want %v", id, f, want)
		}
	}
	if n, err := cpu.ClusterOnlineCount(1); err != nil || n != 2 {
		t.Errorf("big cluster online = %d (%v), want 2", n, err)
	}
	if _, err := cpu.ClusterOnlineCount(2); !errors.Is(err, ErrInvalidCluster) {
		t.Errorf("ClusterOnlineCount(2) error = %v, want ErrInvalidCluster", err)
	}
	rankOf, numRanks := cpu.ClusterRanks()
	if numRanks != 2 || len(rankOf) != 6 || rankOf[0] != 0 || rankOf[5] != 1 {
		t.Errorf("ranks = %v (%d), want LITTLE rank 0 and big rank 1", rankOf, numRanks)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewClusteredCPU(nil); err == nil {
		t.Error("empty cluster list accepted")
	}
	cls := testClusters(t)
	cls[0].NumCores = 0
	if _, err := NewClusteredCPU(cls); err == nil {
		t.Error("zero-core cluster accepted")
	}
	cls = testClusters(t)
	cls[1].Table = nil
	if _, err := NewClusteredCPU(cls); err == nil {
		t.Error("nil cluster table accepted")
	}
	cls = testClusters(t)
	cls[0].Name = ""
	if _, err := NewClusteredCPU(cls); err == nil {
		t.Error("unnamed cluster accepted")
	}
}

func TestSetClusterFreqValidatesOwnTable(t *testing.T) {
	cls := testClusters(t)
	cpu, err := NewClusteredCPU(cls)
	if err != nil {
		t.Fatal(err)
	}
	bigMax := cls[1].Table.Max().Freq
	if err := cpu.SetClusterFreq(1, bigMax); err != nil {
		t.Fatalf("big cluster rejects its own max: %v", err)
	}
	// The big max is not a LITTLE operating point.
	if err := cpu.SetClusterFreq(0, bigMax); !errors.Is(err, ErrBadFrequency) {
		t.Errorf("LITTLE accepted a big-only frequency: %v", err)
	}
	if err := cpu.SetClusterFreq(2, bigMax); !errors.Is(err, ErrInvalidCluster) {
		t.Errorf("invalid cluster index: %v", err)
	}
	// Per-core SetFreq validates against the owning cluster too.
	if err := cpu.SetFreq(0, bigMax); err == nil {
		t.Error("core 0 (LITTLE) accepted a big-only frequency")
	}
	if err := cpu.SetFreq(4, bigMax); err != nil {
		t.Errorf("core 4 (big) rejected its own max: %v", err)
	}
	// Offline cores are programmed too, so they resume at the domain clock.
	if err := cpu.SetClusterOnlineCount(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := cpu.SetClusterFreq(1, bigMax); err != nil {
		t.Fatal(err)
	}
	if f := cpu.Freqs()[5]; f != bigMax {
		t.Errorf("offline big core freq = %v, want %v", f, bigMax)
	}
}

func TestSetClusterOnlineCount(t *testing.T) {
	cpu, err := NewClusteredCPU(testClusters(t))
	if err != nil {
		t.Fatal(err)
	}
	// Park the whole big cluster.
	if err := cpu.SetClusterOnlineCount(1, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := cpu.ClusterOnlineCount(1); n != 0 {
		t.Errorf("big online = %d, want 0", n)
	}
	if cpu.OnlineCount() != 4 {
		t.Errorf("total online = %d, want 4", cpu.OnlineCount())
	}
	// Shrink LITTLE to one core; lowest ids stay up.
	if err := cpu.SetClusterOnlineCount(0, 1); err != nil {
		t.Fatal(err)
	}
	ids := onlineIDs(cpu)
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("online ids = %v, want [0]", ids)
	}
	// The last online core on the SoC cannot be parked.
	if err := cpu.SetClusterOnlineCount(0, 0); !errors.Is(err, ErrNoOnlineCore) {
		t.Errorf("parked the last online core: %v", err)
	}
	// Clamping: requests beyond the cluster size saturate.
	if err := cpu.SetClusterOnlineCount(1, 99); err != nil {
		t.Fatal(err)
	}
	if n, _ := cpu.ClusterOnlineCount(1); n != 2 {
		t.Errorf("big online = %d, want 2 after clamped request", n)
	}
}

// TestNewCPUSingleCluster: a one-cluster CPU is the homogeneous case,
// with every core in cluster 0 at efficiency rank 0.
func TestNewCPUSingleCluster(t *testing.T) {
	cpu := newTestCPU(t)
	rankOf, numRanks := cpu.ClusterRanks()
	if numRanks != 1 || len(rankOf) != 4 {
		t.Fatalf("ranks = %v (%d), want 4 cores in 1 rank", rankOf, numRanks)
	}
	for id, r := range rankOf {
		if r != 0 {
			t.Errorf("core %d: rank %d, want 0", id, r)
		}
	}
	if n, err := cpu.ClusterOnlineCount(0); err != nil || n != 4 {
		t.Errorf("cluster 0 online = %d (%v), want all 4 cores", n, err)
	}
}
