// Package stack resolves policy-stack names to policy.Manager instances:
// the named managers of the thesis ("mobicore", "android-default",
// "oracle") and the composable "<governor>+<hotplug>" forms. Every
// platform is built the same way, as a list of frequency domains: a
// homogeneous SoC is a one-cluster SoC. It is the single construction
// path shared by the public facade, the fleet driver's name-based specs,
// and the CLIs, so the set of accepted names cannot drift between layers.
package stack

import (
	"fmt"
	"strings"

	"mobicore/internal/core"
	"mobicore/internal/cpufreq"
	"mobicore/internal/hotplug"
	"mobicore/internal/platform"
	"mobicore/internal/policy"
)

// Named policy stacks.
const (
	// MobiCore is the paper's contribution: the full energy-model guided
	// hybrid manager (DVFS + DCS + bandwidth in one decision).
	MobiCore = "mobicore"
	// MobiCoreThreshold is MobiCore with the §5.2 threshold rule for core
	// re-evaluation instead of the energy-model search.
	MobiCoreThreshold = "mobicore-threshold"
	// AndroidDefault is the baseline the thesis evaluates against: the
	// ondemand governor plus the default load hotplug.
	AndroidDefault = "android-default"
	// Oracle is the §4.2 exhaustive energy-model optimizer.
	Oracle = "oracle"
)

// Names lists the named stacks (the composable "<governor>+<hotplug>"
// forms are additional).
func Names() []string {
	return []string{AndroidDefault, MobiCore, MobiCoreThreshold, Oracle}
}

// Build resolves a policy name against a platform. MobiCore runs one
// engine per cluster behind an energy-aware gate, and stock governors run
// one instance per cluster as independent cpufreq policy domains, as
// Linux does. Each call returns a fresh manager, so one name can seed
// many concurrent sessions.
func Build(name string, plat platform.Platform) (policy.Manager, error) {
	switch name {
	case "", AndroidDefault:
		return composed("ondemand+load", plat)
	case MobiCore, MobiCoreThreshold:
		return manager(core.NewClusteredForPlatform(plat, core.DefaultTunables(), core.DefaultClusterTunables(), name == MobiCore))
	case Oracle:
		return manager(core.NewClusteredOracleForPlatform(plat, 0.15))
	}
	return composed(name, plat)
}

// manager returns a constructor's result as a policy.Manager, keeping a
// failed construction a nil interface rather than a typed nil.
func manager[M policy.Manager](m M, err error) (policy.Manager, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// composed parses "<governor>+<hotplug>" and builds one governor per
// cluster.
func composed(name string, plat platform.Platform) (policy.Manager, error) {
	govName, plugName, ok := strings.Cut(name, "+")
	if !ok || govName == "" || plugName == "" {
		return nil, fmt.Errorf("unknown policy %q (want one of %v or \"governor+hotplug\")",
			name, Names())
	}
	plug, err := buildHotplug(plugName)
	if err != nil {
		return nil, err
	}
	comp, err := plat.Compiled()
	if err != nil {
		return nil, err
	}
	govs := make([]cpufreq.Governor, len(comp.Tables))
	for i, t := range comp.Tables {
		if govs[i], err = cpufreq.New(govName, t); err != nil {
			return nil, err
		}
	}
	return manager(policy.Compose(govs, plug))
}

// Hotplugs lists the hotplug policy names composable on the right of
// "<governor>+<hotplug>" ("fixed-N" stands for any N >= 1).
func Hotplugs() []string {
	return []string{"load", "mpdecision", "offline", "fixed-N"}
}

func buildHotplug(name string) (hotplug.Policy, error) {
	switch name {
	case "load":
		return hotplug.NewLoad(hotplug.DefaultLoadTunables())
	case "mpdecision":
		return hotplug.MPDecision{}, nil
	case "offline":
		return hotplug.NewOffliner(hotplug.DefaultOfflinerTunables())
	}
	var n int
	if _, err := fmt.Sscanf(name, "fixed-%d", &n); err == nil {
		return hotplug.NewFixed(n)
	}
	return nil, fmt.Errorf("unknown hotplug policy %q (want load, mpdecision, offline, or fixed-N)", name)
}
