package soc

import (
	"errors"
	"testing"
)

// newTestCPU builds a Nexus 5-like CPU: one cluster of four cores on the
// MSM8974 ladder.
func newTestCPU(t *testing.T) *CPU {
	t.Helper()
	cpu, err := NewClusteredCPU([]Cluster{{Name: "cpu", NumCores: 4, Table: MSM8974Table()}})
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

// onlineIDs lists cpu's online cores in id order.
func onlineIDs(cpu *CPU) []int {
	var ids []int
	for id, on := range cpu.Online() {
		if on {
			ids = append(ids, id)
		}
	}
	return ids
}

func TestNewCPUValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewClusteredCPU([]Cluster{{Name: "cpu", NumCores: n, Table: MSM8974Table()}}); err == nil {
			t.Errorf("%d-core CPU accepted", n)
		}
	}
	if _, err := NewClusteredCPU([]Cluster{{Name: "cpu", NumCores: 4}}); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("nil table error = %v, want ErrEmptyTable", err)
	}
}

func TestCPUBootState(t *testing.T) {
	cpu := newTestCPU(t)
	if got := cpu.OnlineCount(); got != 4 {
		t.Errorf("boot online count = %d, want 4", got)
	}
	for id, f := range cpu.Freqs() {
		if f != 300*MHz || cpu.OPPs()[id] != MSM8974Table().Min() {
			t.Errorf("core %d boot point = %v (%+v), want table minimum", id, f, cpu.OPPs()[id])
		}
	}
}

func TestSetFreq(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.SetFreq(2, 960_000*KHz); err != nil {
		t.Fatal(err)
	}
	if f := cpu.Freqs()[2]; f != 960_000*KHz {
		t.Errorf("freq = %v, want 960MHz", f)
	}
	if v := cpu.OPPs()[2].Volt; v != 0.975 {
		t.Errorf("volt = %v, want the 960MHz point's 0.975", v)
	}
	if err := cpu.SetFreq(2, 961*MHz); !errors.Is(err, ErrBadFrequency) {
		t.Errorf("SetFreq(non-OPP) error = %v, want ErrBadFrequency", err)
	}
	if err := cpu.SetFreq(9, 300*MHz); !errors.Is(err, ErrInvalidCore) {
		t.Errorf("SetFreq(bad core) error = %v, want ErrInvalidCore", err)
	}
}

func TestHotplugSemantics(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.SetOnlineCount(3); err != nil {
		t.Fatal(err)
	}
	gen := cpu.Gen()
	if err := cpu.SetOnlineCount(3); err != nil {
		t.Errorf("repeating a hotplug request should be a no-op, got %v", err)
	}
	if cpu.Gen() != gen {
		t.Error("a no-op hotplug request moved the change signal")
	}
	if got := cpu.OnlineCount(); got != 3 {
		t.Fatalf("online count = %d, want 3", got)
	}
	// The SoC's only cluster cannot be parked: some core must stay up.
	if err := cpu.SetClusterOnlineCount(0, 0); !errors.Is(err, ErrNoOnlineCore) {
		t.Errorf("parking every core error = %v, want ErrNoOnlineCore", err)
	}
	if cpu.Gen() != gen || cpu.OnlineCount() != 3 {
		t.Errorf("a refused hotplug request changed the CPU: %d online", cpu.OnlineCount())
	}
	if err := cpu.SetClusterOnlineCount(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := cpu.OnlineCount(); got != 2 {
		t.Errorf("online count after cluster request = %d, want 2", got)
	}
}

func TestSetOnlineCount(t *testing.T) {
	cpu := newTestCPU(t)
	tests := []struct {
		target int
		want   int
		ids    []int
	}{
		{2, 2, []int{0, 1}}, // offline from the top
		{4, 4, []int{0, 1, 2, 3}},
		{1, 1, []int{0}},          // core 0 always survives
		{0, 1, []int{0}},          // clamped to 1
		{9, 4, []int{0, 1, 2, 3}}, // clamped to max
	}
	for _, tt := range tests {
		if err := cpu.SetOnlineCount(tt.target); err != nil {
			t.Fatalf("SetOnlineCount(%d): %v", tt.target, err)
		}
		if got := cpu.OnlineCount(); got != tt.want {
			t.Errorf("SetOnlineCount(%d): count = %d, want %d", tt.target, got, tt.want)
		}
		ids := onlineIDs(cpu)
		if len(ids) != len(tt.ids) {
			t.Fatalf("SetOnlineCount(%d): ids = %v, want %v", tt.target, ids, tt.ids)
		}
		for i := range ids {
			if ids[i] != tt.ids[i] {
				t.Errorf("SetOnlineCount(%d): ids = %v, want %v", tt.target, ids, tt.ids)
				break
			}
		}
	}
}

func TestCoreStateString(t *testing.T) {
	tests := []struct {
		s    CoreState
		want string
	}{
		{StateOffline, "offline"},
		{StateIdle, "idle"},
		{StateActive, "active"},
		{CoreState(42), "CoreState(42)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}
