package randsrc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCookedTable pins the recovered table at its first, middle and last
// entries as math/rand's rng.go spells them; the stream tests below check
// every entry through the outputs.
func TestCookedTable(t *testing.T) {
	for _, c := range []struct {
		i    int
		want int64
	}{
		{0, -4181792142133755926},
		{303, -3074039370013608197},
		{length - 1, 4152330101494654406},
	} {
		if got := int64(cooked[c.i]); got != c.want {
			t.Errorf("cooked[%d] = %d, want %d", c.i, got, c.want)
		}
	}
}

// edgeSeeds are the seeds at the edges of math/rand's seed reduction:
// zero and its replacement, the modulus and its multiples, and the int64
// extremes.
var edgeSeeds = []int64{
	0, 1, -1, modulus, -modulus, 2 * modulus, modulus - 1, modulus + 1,
	math.MinInt64, math.MaxInt64, zeroSeed, -zeroSeed,
}

// testSeeds returns the edge seeds, the seeds 1..n, and n seeds spread
// over all of int64.
func testSeeds(n int) []int64 {
	seeds := slices.Clone(edgeSeeds)
	spread := rand.New(rand.NewSource(42))
	for i := 1; i <= n; i++ {
		seeds = append(seeds, int64(i), int64(spread.Uint64()))
	}
	return seeds
}

// compare draws from want and got with the method op selects and
// describes the first difference; op 7 reseeds both rands with reseed.
func compare(want, got *rand.Rand, op byte, reseed int64) error {
	switch op % 8 {
	case 0:
		if w, g := want.Uint64(), got.Uint64(); w != g {
			return fmt.Errorf("Uint64 = %d, want %d", g, w)
		}
	case 1:
		if w, g := want.Int63(), got.Int63(); w != g {
			return fmt.Errorf("Int63 = %d, want %d", g, w)
		}
	case 2:
		if w, g := want.Float64(), got.Float64(); w != g {
			return fmt.Errorf("Float64 = %v, want %v", g, w)
		}
	case 3:
		if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
			return fmt.Errorf("NormFloat64 = %v, want %v", g, w)
		}
	case 4:
		n := 1 + int(op)
		if w, g := want.Intn(n), got.Intn(n); w != g {
			return fmt.Errorf("Intn(%d) = %d, want %d", n, g, w)
		}
	case 5:
		n := 1 << 40
		if w, g := want.Intn(n), got.Intn(n); w != g {
			return fmt.Errorf("Intn(%d) = %d, want %d", n, g, w)
		}
	case 6:
		n := int(op) % 23
		if w, g := want.Perm(n), got.Perm(n); !slices.Equal(w, g) {
			return fmt.Errorf("Perm(%d) = %v, want %v", n, g, w)
		}
	case 7:
		want.Seed(reseed)
		got.Seed(reseed)
	}
	return nil
}

// TestStreamMatchesMathRand holds the source to rand.NewSource over
// every method the simulator's callers use, across the first 607 draws
// (where entries are computed on read) and past them, with reseeds in
// the middle of the stream.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := testSeeds(5000)
	for k, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), rand.New(New(seed))
		// Every 64th seed runs well past the first cycle and reseeds; the
		// rest cross its end once.
		steps := 400
		if k%64 == 0 {
			steps = 3000
		}
		for i := 0; i < steps; i++ {
			op := byte(i*7+k) % 7 // no reseed
			if k%64 == 0 && i%997 == 996 {
				op = 7
			}
			if err := compare(want, got, op, seeds[(k+i)%len(seeds)]); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, i, err)
			}
		}
	}
}

// TestUint64MatchesMathRand compares the raw Source64 streams of every
// test seed for two full cycles of the vector, then reseeds both sources
// in the middle of a cycle and compares again.
func TestUint64MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds(5000) {
		want, got := rand.NewSource(seed).(rand.Source64), New(seed)
		for i := 0; i < 2*length+5; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
			}
		}
		want.Seed(^seed)
		got.Seed(^seed)
		for i := 0; i < length+1; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d reseeded to %d, draw %d: Int63 = %d, want %d", seed, ^seed, i, g, w)
			}
		}
	}
}

// FuzzSessionRNG compares a rand.Rand over the source with one over
// rand.NewSource for any seed, number of draws and mix of methods,
// reseeds included.
func FuzzSessionRNG(f *testing.F) {
	f.Add(int64(1), uint16(3), []byte{0, 1, 2})
	f.Add(int64(0), uint16(700), []byte{0})
	f.Add(int64(math.MinInt64), uint16(1300), []byte{3, 6, 7, 2})
	f.Add(int64(modulus), uint16(612), []byte{5, 4, 7, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix []byte) {
		if len(mix) == 0 {
			mix = []byte{0}
		}
		want, got := rand.New(rand.NewSource(seed)), rand.New(New(seed))
		for i := 0; i < int(draws%4096); i++ {
			op := mix[i%len(mix)]
			if err := compare(want, got, op, seed+int64(i)*int64(op)); err != nil {
				t.Fatalf("draw %d: %v", i, err)
			}
		}
	})
}

// BenchmarkRNGSeed times reseeding a source and taking the three draws a
// short session makes, for math/rand's source and this one.
func BenchmarkRNGSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(1)},
		{"randsrc", New(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			seed := int64(0)
			for b.Loop() {
				seed++
				c.src.Seed(seed)
				c.src.Int63()
				c.src.Int63()
				c.src.Int63()
			}
		})
	}
}

// BenchmarkRNGDraw times a draw past the first cycle, the steady state of
// a long session drawing once per tick.
func BenchmarkRNGDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"math-rand", rand.NewSource(1)},
		{"randsrc", New(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			for range 2 * length {
				r.Int63()
			}
			for b.Loop() {
				r.Float64()
			}
		})
	}
}
