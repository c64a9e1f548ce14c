package store

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"
)

// legacyKey is the identity hash's defining formula: a streaming SHA-256
// over each canonical field's text followed by a NUL, the first 16 bytes
// hex-encoded. Identity.Key must return exactly this for every identity,
// or every store and trace file ever written would be orphaned.
func legacyKey(id Identity) string {
	h := sha256.New()
	for _, s := range []string{
		id.Platform, id.Policy, id.Workload, id.Placer,
		strconv.FormatInt(id.Seed, 10),
		strconv.FormatInt(id.DurationNS, 10),
		strconv.FormatBool(id.UntilDone),
		strconv.FormatInt(id.TickNS, 10),
		strconv.FormatInt(id.SampleNS, 10),
	} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// keyOracleIdentities are the table cases: empty strings, NUL and
// non-ASCII bytes inside names, names longer than Key's stack buffer,
// min and max int64 in every int field, and UntilDone both ways.
func keyOracleIdentities() []Identity {
	base := testRecord(1).Identity
	ids := []Identity{base, {}, {UntilDone: true}}
	for _, name := range []string{"", "a\x00b", "\x00", "Nexus 6P — ½ écran", "\xff\xfe", strings.Repeat("x", 300)} {
		for i := range 4 {
			id := base
			*[]*string{&id.Platform, &id.Policy, &id.Workload, &id.Placer}[i] = name
			ids = append(ids, id)
		}
	}
	for _, n := range []int64{math.MinInt64, math.MaxInt64, -1, 0} {
		for i := range 4 {
			id := base
			*[]*int64{&id.Seed, &id.DurationNS, &id.TickNS, &id.SampleNS}[i] = n
			ids = append(ids, id)
		}
	}
	long := Identity{
		Platform: strings.Repeat("p", 64), Policy: strings.Repeat("q", 64),
		Workload: strings.Repeat("w", 64), Placer: strings.Repeat("z", 64),
		Seed: math.MinInt64, DurationNS: math.MinInt64, UntilDone: true,
		TickNS: math.MinInt64, SampleNS: math.MinInt64,
	}
	return append(ids, long)
}

func TestIdentityKeyMatchesLegacy(t *testing.T) {
	for _, id := range keyOracleIdentities() {
		for _, until := range []bool{false, true} {
			id.UntilDone = until
			if got, want := id.Key(), legacyKey(id); got != want {
				t.Errorf("Key(%+v) = %s, want %s", id, got, want)
			}
		}
	}
}

// FuzzIdentityKey checks Key against the legacy formula on arbitrary
// identities.
func FuzzIdentityKey(f *testing.F) {
	for _, id := range keyOracleIdentities() {
		f.Add(id.Platform, id.Policy, id.Workload, id.Placer, id.Seed, id.DurationNS, id.UntilDone, id.TickNS, id.SampleNS)
	}
	f.Fuzz(func(t *testing.T, platform, policy, wl, placer string, seed, dur int64, until bool, tick, sample int64) {
		id := Identity{
			Platform: platform, Policy: policy, Workload: wl, Placer: placer,
			Seed: seed, DurationNS: dur, UntilDone: until, TickNS: tick, SampleNS: sample,
		}
		if got, want := id.Key(), legacyKey(id); got != want {
			t.Fatalf("Key(%+v) = %s, want %s", id, got, want)
		}
	})
}
