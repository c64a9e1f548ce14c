package soc_test

import (
	"slices"
	"testing"

	"mobicore/internal/platform"
	"mobicore/internal/soc"
)

// fuzzTopologies are the device topologies FuzzCPUOps drives: one
// homogeneous cluster, big.LITTLE, and a three-domain tri-cluster part.
var fuzzTopologies = []func() platform.Platform{platform.Nexus5, platform.Nexus6P, platform.SD855}

// FuzzCPUOps drives a random sequence of frequency and hotplug operations,
// flat and per-cluster, over real device topologies and checks the CPU's
// contract after every one:
//   - at least one core is online;
//   - every core's programmed frequency is on its cluster's ladder, with
//     that ladder point's voltage;
//   - hotplug brings cores online from the lowest id and takes them offline
//     from the highest, within the requested scope (the whole SoC, or one
//     cluster), and reaches the clamped target count;
//   - a refused operation changes nothing;
//   - Gen moves if and only if some core's frequency or online state moved.
func FuzzCPUOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 0, 0, 3, 5, 1, 0, 9, 3, 0, 1, 2, 2, 0})
	f.Add([]byte{1, 3, 1, 0, 3, 0, 0, 2, 3, 0, 3, 1, 7, 1, 1, 4, 2, 9, 0})
	f.Add([]byte{2, 3, 2, 0, 3, 1, 0, 3, 0, 0, 1, 0, 255, 0, 7, 3, 2, 5, 2, 9, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		comp, err := fuzzTopologies[int(data[0])%len(fuzzTopologies)]().Compiled()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := comp.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		n, nc := cpu.NumCores(), len(comp.Specs)
		ladder := func(id int) *soc.OPPTable { return comp.Specs[comp.CoreCluster[id]].Table }
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%4, int(ops[1]), int(ops[2])
			online := slices.Clone(cpu.Online())
			freq := slices.Clone(cpu.Freqs())
			gen := cpu.Gen()
			lo, hi, want := 0, n, -1 // hotplug scope [lo, hi) and its clamped target
			switch op {
			case 0: // one core, possibly an invalid id or an off-ladder frequency
				id := a%(n+2) - 1
				var fr soc.Hz = 1
				if id >= 0 && id < n && b%5 != 0 {
					fr = ladder(id).At(b % ladder(id).Len()).Freq
				}
				err = cpu.SetFreq(id, fr)
			case 1: // one cluster's clock, possibly another cluster's frequency
				ci := a % (nc + 1)
				fr := comp.Specs[b%nc].Table.At(b / nc % comp.Specs[b%nc].Table.Len()).Freq
				err = cpu.SetClusterFreq(ci, fr)
			case 2: // flat hotplug, with out-of-range requests
				k := a%(n+3) - 1
				want = max(1, min(k, n))
				err = cpu.SetOnlineCount(k)
			case 3: // one cluster's hotplug, with out-of-range requests
				ci := a % nc
				size := comp.Specs[ci].NumCores
				k := b%(size+3) - 1
				ids := comp.ClusterCoreIDs[ci]
				lo, hi, want = ids[0], ids[len(ids)-1]+1, max(0, min(k, size))
				err = cpu.SetClusterOnlineCount(ci, k)
			}

			moved := !slices.Equal(online, cpu.Online()) || !slices.Equal(freq, cpu.Freqs())
			if err != nil && (moved || cpu.Gen() != gen) {
				t.Fatalf("op %d(%d,%d) failed (%v) but changed the CPU", op, a, b, err)
			}
			if moved != (cpu.Gen() != gen) {
				t.Fatalf("op %d(%d,%d): state moved %v but Gen %d -> %d", op, a, b, moved, gen, cpu.Gen())
			}
			if cpu.OnlineCount() < 1 {
				t.Fatalf("op %d(%d,%d) left no core online", op, a, b)
			}
			for id, fr := range cpu.Freqs() {
				i := ladder(id).IndexOf(fr)
				if i < 0 || cpu.OPPs()[id] != ladder(id).At(i) {
					t.Fatalf("core %d programmed to %v (%+v), not a point of its ladder", id, fr, cpu.OPPs()[id])
				}
			}
			if want < 0 || err != nil {
				if !slices.Equal(online, cpu.Online()) {
					t.Fatalf("op %d(%d,%d) changed the online mask", op, a, b)
				}
				continue
			}
			requireHotplugOrder(t, online, cpu.Online(), lo, hi, want)
		}
	})
}

// requireHotplugOrder checks one hotplug request over the scope [lo, hi):
// no core outside it moved, the scope holds want online cores, every core
// brought online has a lower id than every core still offline, and every
// core taken offline a higher id than every core still online.
func requireHotplugOrder(t *testing.T, before, after []bool, lo, hi, want int) {
	t.Helper()
	count := 0
	for id := range after {
		if id < lo || id >= hi {
			if before[id] != after[id] {
				t.Fatalf("core %d outside the scope [%d,%d) moved", id, lo, hi)
			}
			continue
		}
		if after[id] {
			count++
		}
		for other := lo; other < hi; other++ {
			if !before[id] && after[id] && !after[other] && other < id {
				t.Fatalf("core %d onlined while lower core %d stays offline (%v -> %v)", id, other, before, after)
			}
			if before[id] && !after[id] && after[other] && other > id {
				t.Fatalf("core %d offlined while higher core %d stays online (%v -> %v)", id, other, before, after)
			}
		}
	}
	if count != want {
		t.Fatalf("scope [%d,%d) has %d cores online, want %d (%v -> %v)", lo, hi, count, want, before, after)
	}
}
