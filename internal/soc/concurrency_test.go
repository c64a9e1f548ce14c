package soc

import (
	"sync"
	"testing"
)

// TestCPUConcurrentAccess exercises the CPU's mutex under parallel
// frequency programming, flat and per-cluster hotplug, and snapshotting.
// Run with -race to validate the locking.
func TestCPUConcurrentAccess(t *testing.T) {
	cpu := newTestCPU(t)
	freqs := MSM8974Table().Frequencies()

	var wg sync.WaitGroup
	const iters = 500

	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := cpu.SetFreq(i%4, freqs[i%len(freqs)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = cpu.SetOnlineCount(1 + i%4)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Per-core hotplug races the flat one: refusing to offline
			// the last core is expected and fine; corruption is not.
			if i%2 == 0 {
				_ = cpu.Offline(1 + i%3)
			} else {
				_ = cpu.Online(1 + i%3)
			}
			if err := cpu.SetClusterFreq(0, freqs[(i+1)%len(freqs)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			snap := cpu.Snapshot()
			if len(snap) != 4 {
				t.Errorf("snapshot size %d", len(snap))
				return
			}
			_ = cpu.OnlineCount()
			_, _ = cpu.ClusterOnlineCount(0)
		}
	}()
	wg.Wait()

	if got := cpu.OnlineCount(); got < 1 || got > 4 {
		t.Errorf("online count %d corrupted", got)
	}
}
