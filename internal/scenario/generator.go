package scenario

import (
	"math/rand"
	"time"

	"mobicore/internal/randsrc"
)

// walk is the deterministic phase walk shared by the Generator (which
// materializes a Trace up front) and the generator-mode Workload (which
// draws the same sequence live from the engine's seeded rng). One segment
// costs exactly two draws — duration, then next phase — so a Trace
// generated at seed s and a live walk over a session rng seeded s agree
// segment for segment.
type walk struct {
	prof Profile
	cur  Phase
}

func newWalk(prof Profile) walk {
	return walk{prof: prof, cur: prof.Start}
}

// next draws the current phase's segment and advances the walk.
func (w *walk) next(rng *rand.Rand) Segment {
	spec := w.prof.Phases[w.cur]
	dur := spec.MinDur
	if span := int64(spec.MaxDur - spec.MinDur); span > 0 {
		dur += time.Duration(rng.Int63n(span + 1))
	}
	seg := Segment{Phase: w.cur, Duration: dur, Rate: spec.Rate, Threads: spec.Threads}
	w.cur = w.prof.pick(w.cur, rng)
	return seg
}

// Generator materializes seeded deterministic traces from a profile.
type Generator struct {
	prof Profile
	seed int64
}

// NewGenerator builds a generator for one profile and seed.
func NewGenerator(prof Profile, seed int64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Generator{prof: prof, seed: seed}, nil
}

// Generate walks the phase graph until total simulated time is covered,
// truncating the final segment so TotalDuration is exactly total. The same
// profile, seed, and total always produce the identical trace.
func (g *Generator) Generate(total time.Duration) Trace {
	rng := rand.New(randsrc.New(g.seed))
	w := newWalk(g.prof)
	tr := Trace{Name: g.prof.Name, Seed: g.seed}
	var elapsed time.Duration
	for elapsed < total {
		seg := w.next(rng)
		if elapsed+seg.Duration > total {
			seg.Duration = total - elapsed
		}
		elapsed += seg.Duration
		tr.Segments = append(tr.Segments, seg)
	}
	return tr
}
