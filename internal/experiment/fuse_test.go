package experiment

import (
	"bytes"
	"testing"
)

// TestFusedMatchesNoFuseOnGoldens locks the quiescent-tick fast path's
// identity contract at the experiment level: every experiment renders
// byte-identically with the memoized fast path enabled (the default) and
// disabled (NoFuse), at serial and parallel fleet drives alike. A divergence
// here means a memo replay produced different physics than the full per-tick
// pass it claimed to reproduce.
func TestFusedMatchesNoFuseOnGoldens(t *testing.T) {
	for _, id := range IDs() {
		scale := 0.05
		if id == "sustained" {
			scale = 0.2
		}
		for _, parallel := range []int{1, 8} {
			render := func(noFuse bool) []byte {
				t.Helper()
				res, err := Run(id, Options{Scale: scale, Seed: 42, Parallel: parallel, NoFuse: noFuse})
				if err != nil {
					t.Fatalf("%s (parallel %d, noFuse %v): %v", id, parallel, noFuse, err)
				}
				var buf bytes.Buffer
				if err := res.WriteText(&buf); err != nil {
					t.Fatalf("%s: rendering: %v", id, err)
				}
				return buf.Bytes()
			}
			fused, slow := render(false), render(true)
			if !bytes.Equal(fused, slow) {
				t.Errorf("%s (parallel %d): fused output diverged from NoFuse:\n--- fused ---\n%s\n--- nofuse ---\n%s",
					id, parallel, fused, slow)
			}
		}
	}
}
