package sim_test

import (
	"bytes"
	"testing"
	"time"

	"mobicore/internal/core"
	"mobicore/internal/platform"
	"mobicore/internal/scenario"
	"mobicore/internal/sim"
	"mobicore/internal/workload"
)

// scenarioSim builds a Nexus 5 MobiCore session around one scenario
// workload, capturing the power trace bit-exactly.
func scenarioSim(t *testing.T, w workload.Workload, seed int64, noFuse bool, trace *bytes.Buffer) *sim.Sim {
	t.Helper()
	plat := platform.Nexus5()
	mgr, err := core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.SessionSpec{
		Platform:  plat,
		Manager:   mgr,
		Workloads: []workload.Workload{w},
		Seed:      seed,
		NoFuse:    noFuse,
		PowerTrace: func(now, dt time.Duration, systemW float64, clusterW []float64) {
			traceBits(trace, now, dt, systemW, clusterW)
		},
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScenarioReplayMatchesGenerate is the record/replay contract: a
// generator-mode scenario running live off the session rng at seed s, and a
// replay of the trace Generate(s) materializes up front, must produce
// byte-identical power traces and identical reports. This is what lets a
// fleet sweep record thousands of synthetic users and replay any one of
// them exactly.
func TestScenarioReplayMatchesGenerate(t *testing.T) {
	const seed = 9
	const dur = 20 * time.Second
	prof := scenario.DayInTheLife()

	live, err := scenario.FromProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	var liveTrace bytes.Buffer
	liveSim := scenarioSim(t, live, seed, false, &liveTrace)
	liveRep, err := liveSim.Run(dur)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := scenario.NewGenerator(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := scenario.New(gen.Generate(dur))
	if err != nil {
		t.Fatal(err)
	}
	var replayTrace bytes.Buffer
	replaySim := scenarioSim(t, replay, seed, false, &replayTrace)
	replayRep, err := replaySim.Run(dur)
	if err != nil {
		t.Fatal(err)
	}

	if live.DepositedCycles() != replay.DepositedCycles() {
		t.Errorf("deposited cycles diverge: live %v, replay %v",
			live.DepositedCycles(), replay.DepositedCycles())
	}
	if !bytes.Equal(liveTrace.Bytes(), replayTrace.Bytes()) {
		t.Error("power traces diverge between generator-mode and replay")
	}
	if liveRep.EnergyJ != replayRep.EnergyJ || liveRep.ExecutedCycles != replayRep.ExecutedCycles ||
		liveRep.AvgPowerW != replayRep.AvgPowerW {
		t.Errorf("reports diverge:\nlive: %+v\nreplay: %+v", liveRep, replayRep)
	}
}

// TestScenarioFusedMatchesNoFuse runs a phase-switching scenario fused and
// NoFuse in lockstep: thread fan-out at phase boundaries, retirement, and
// screen-off idle stretches must all preserve bit-exact equivalence, and
// the idle stretches must actually engage the fast path.
func TestScenarioFusedMatchesNoFuse(t *testing.T) {
	run := func(noFuse bool) (*sim.Report, uint64, []byte) {
		t.Helper()
		w, err := scenario.FromProfile(scenario.Standby())
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		s := scenarioSim(t, w, 13, noFuse, &trace)
		rep, err := s.Run(20 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep, s.FastTicks(), trace.Bytes()
	}
	fusedRep, fastTicks, fusedTrace := run(false)
	slowRep, slowFast, slowTrace := run(true)
	if fastTicks == 0 {
		t.Fatal("fused scenario never took the fast path; the comparison is vacuous")
	}
	if slowFast != 0 {
		t.Fatalf("NoFuse run took %d fast ticks", slowFast)
	}
	if !bytes.Equal(fusedTrace, slowTrace) {
		t.Fatal("power traces diverge between fused and NoFuse scenario runs")
	}
	if fusedRep.EnergyJ != slowRep.EnergyJ || fusedRep.ExecutedCycles != slowRep.ExecutedCycles ||
		fusedRep.AvgPowerW != slowRep.AvgPowerW {
		t.Errorf("reports diverge:\nfused: %+v\nnofuse: %+v", fusedRep, slowRep)
	}
}
