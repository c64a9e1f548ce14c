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

// onlineIDs lists the online cores of cpu's snapshot in id order.
func onlineIDs(cpu *CPU) []int {
	var ids []int
	for _, c := range cpu.Snapshot() {
		if c.State != StateOffline {
			ids = append(ids, c.ID)
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
	for _, c := range cpu.Snapshot() {
		if c.State != StateIdle {
			t.Errorf("core %d boot state = %v, want idle", c.ID, c.State)
		}
		if c.Freq != 300*MHz {
			t.Errorf("core %d boot freq = %v, want table minimum", c.ID, c.Freq)
		}
	}
}

func TestSetFreq(t *testing.T) {
	cpu := newTestCPU(t)
	if err := cpu.SetFreq(2, 960_000*KHz); err != nil {
		t.Fatal(err)
	}
	f, err := cpu.Freq(2)
	if err != nil {
		t.Fatal(err)
	}
	if f != 960_000*KHz {
		t.Errorf("freq = %v, want 960MHz", f)
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
	if err := cpu.Offline(3); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Offline(3); err != nil {
		t.Errorf("offlining an offline core should be a no-op, got %v", err)
	}
	if got := cpu.OnlineCount(); got != 3 {
		t.Fatalf("online count = %d, want 3", got)
	}
	for _, id := range []int{2, 1} {
		if err := cpu.Offline(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := cpu.Offline(0); !errors.Is(err, ErrLastCore) {
		t.Errorf("offlining last core error = %v, want ErrLastCore", err)
	}
	if err := cpu.Online(1); err != nil {
		t.Fatal(err)
	}
	if got := cpu.OnlineCount(); got != 2 {
		t.Errorf("online count after re-online = %d, want 2", got)
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
