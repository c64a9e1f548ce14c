package main

import "testing"

// series returns n values around base: each pair's i-th value is
// base·(1 + jitter[i % len(jitter)]).
func series(base float64, n int, jitter ...float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + jitter[i%len(jitter)])
	}
	return out
}

func TestJudge(t *testing.T) {
	quiet := []float64{-0.01, 0.005, 0, 0.01, -0.005}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          float64
		want           string
	}{
		{"clear gain, higher is better", series(100, 10, quiet...), series(120, 10, quiet...), true, 0.1, "gain"},
		{"clear gain, lower is better", series(100, 10, quiet...), series(80, 10, quiet...), false, 0.1, "gain"},
		{"too few pairs", series(100, 9, quiet...), series(120, 9, quiet...), true, 0.1, "too few pairs"},
		// The change wins 8 of 10 pairs: below the nine-tenths rule, but
		// within the bound, so no regression either.
		{"8/10 wins is not a gain", series(100, 10, quiet...),
			[]float64{102, 102, 102, 102, 102, 102, 102, 102, 98, 98}, true, 0.1, "within bound"},
		// Every pair wins but the gap (0.2) is inside the parent's IQR.
		{"gap inside parent IQR", series(100, 10, -0.05, 0.05), series(100.2, 10, -0.05, 0.05), true, 0.2, "within bound"},
		{"regression beyond bound", series(100, 10, quiet...), series(85, 10, quiet...), true, 0.1, "regression"},
		{"slower within bound", series(100, 10, quiet...), series(95, 10, quiet...), true, 0.1, "within bound"},
		{"spread wider than bound", series(100, 10, -0.3, 0.3, 0, -0.2, 0.2), series(90, 10, -0.3, 0.3, 0, -0.2, 0.2), true, 0.1, "unresolved"},
		// Noisy on both sides, but every change run loses to every parent
		// run, or beats every one without clearing the gain rule.
		{"separated worse despite spread", series(100, 10, -0.2, 0.2, 0), series(200, 10, -0.2, 0.2, 0), false, 0.1, "regression"},
		{"separated better despite spread", series(100, 10, -0.2, 0.2, 0), series(130, 10, -0.01, 0.01, 0), true, 0.1, "within bound"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge(tc.parent, tc.change, tc.higherBetter, tc.bound).Outcome; got != tc.want {
				t.Errorf("judge = %q, want %q", got, tc.want)
			}
		})
	}
}
