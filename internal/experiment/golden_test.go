package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// TestFleetPortedExperimentsMatchGolden locks the multi-layer refactor's
// compatibility contract: the experiments ported onto the fleet driver
// (biglittle, easplace, sustained) render byte-identically to the serial
// pre-fleet implementation, whose output at these scales and seed 42 is
// checked into testdata. Any physics or formatting drift fails here.
func TestFleetPortedExperimentsMatchGolden(t *testing.T) {
	cases := []struct {
		id    string
		scale float64
	}{
		{"biglittle", 0.05},
		{"easplace", 0.05},
		{"sustained", 0.2},
	}
	for _, c := range cases {
		for _, parallel := range []int{1, 8} {
			res, err := Run(c.id, Options{Scale: c.scale, Seed: 42, Parallel: parallel})
			if err != nil {
				t.Fatalf("%s (parallel %d): %v", c.id, parallel, err)
			}
			var buf bytes.Buffer
			if err := res.WriteText(&buf); err != nil {
				t.Fatalf("%s: rendering: %v", c.id, err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", c.id+"_golden.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("%s (parallel %d) drifted from the pre-fleet serial output:\n--- got ---\n%s\n--- want ---\n%s",
					c.id, parallel, buf.Bytes(), golden)
			}
		}
	}
}

// TestDayInLifeMatchesGolden locks the scenario-driven experiment's text
// report: the day-in-the-life comparison renders byte-identically at any
// parallelism. The golden is generated by this harness (there is no
// pre-fleet serial implementation to port from); regenerate with
// -update-golden after an intentional change.
func TestDayInLifeMatchesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "dayinlife_golden.txt")
	for _, parallel := range []int{1, 8} {
		res, err := Run("dayinlife", Options{Scale: 0.05, Seed: 42, Parallel: parallel})
		if err != nil {
			t.Fatalf("dayinlife (parallel %d): %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatalf("dayinlife: rendering: %v", err)
		}
		if *updateGolden && parallel == 1 {
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("dayinlife (parallel %d) drifted from the golden:\n--- got ---\n%s\n--- want ---\n%s",
				parallel, buf.Bytes(), want)
		}
	}
}

// TestCrossSeedExperimentsMatchGolden locks the multi-seed output: the
// per-seed rows stay exactly the single-seed rendering, and the appended
// cross-seed block (per-group mean ± 95% CI, paired matched-seed deltas)
// is byte-stable at any parallelism. Regenerate with -update-golden after
// an intentional physics or formatting change.
func TestCrossSeedExperimentsMatchGolden(t *testing.T) {
	cases := []struct {
		id    string
		scale float64
	}{
		{"biglittle", 0.05},
		{"dayinlife", 0.05},
		{"easplace", 0.05},
		{"sustained", 0.2},
	}
	for _, c := range cases {
		golden := filepath.Join("testdata", c.id+"_ci_golden.txt")
		for _, parallel := range []int{1, 8} {
			res, err := Run(c.id, Options{Scale: c.scale, Seed: 42, Seeds: 3, Parallel: parallel})
			if err != nil {
				t.Fatalf("%s (parallel %d): %v", c.id, parallel, err)
			}
			var buf bytes.Buffer
			if err := res.WriteText(&buf); err != nil {
				t.Fatalf("%s: rendering: %v", c.id, err)
			}
			// The multi-seed output must extend — never alter — the
			// single-seed golden: its first bytes are that file exactly.
			base, err := os.ReadFile(filepath.Join("testdata", c.id+"_golden.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(buf.Bytes(), base) {
				t.Errorf("%s: multi-seed output does not extend the single-seed golden:\n%s", c.id, buf.Bytes())
			}
			if *updateGolden && parallel == 1 {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s (parallel %d) drifted from the cross-seed golden:\n--- got ---\n%s\n--- want ---\n%s",
					c.id, parallel, buf.Bytes(), want)
			}
		}
	}
}

// TestAllExperimentsMatchGolden locks the text of every experiment id at
// the scales TestFusedMatchesNoFuseOnGoldens runs (0.05, and 0.2 for
// sustained), seed 42, so a change that must keep every output byte can
// show it did. Regenerate with -update-golden after an intentional
// physics or formatting change.
func TestAllExperimentsMatchGolden(t *testing.T) {
	for _, id := range IDs() {
		scale := 0.05
		if id == "sustained" {
			scale = 0.2
		}
		res, err := Run(id, Options{Scale: scale, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatalf("%s: rendering: %v", id, err)
		}
		golden := filepath.Join("testdata", "all", id+".txt")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", id, buf.Bytes(), want)
		}
	}
}
