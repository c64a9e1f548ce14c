// Package randsrc provides a math/rand Source64 whose stream is exactly
// rand.NewSource's for every seed, but whose Seed costs O(1) and whose
// first draws cost O(1) each.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word vector with tap 273. Its Seed fills the vector from 1,841
// dependent steps of the Lehmer generator x ← 48271·x mod (2³¹−1): entry
// i packs steps 20+3i+1, +2 and +3, shifted left by 40, 20 and 0, and is
// XORed with a fixed table (rngCooked). Step j is seed·48271^j mod
// (2³¹−1), so a table of the powers gives any entry in three multiplies,
// with no serial chain. Seed here stores only the reduced seed, and a draw
// computes an entry the first time the generator reads it.
//
// No per-entry bookkeeping is needed for that. A draw reads the entries
// at feed and tap and writes the feed one; both indices step down by one
// per draw. Over the first 607 draws after Seed, every feed index is
// distinct, so the feed entry still holds its seeded value. The tap entry
// was written 273 draws earlier, as the feed entry, once 273 draws have
// been made, and holds its seeded value before that.
package randsrc

import "math/rand"

const (
	length = 607 // the vector's length (rngLen)
	tap    = 273 // the lag of the second operand (rngTap)
	mask   = 1<<63 - 1

	modulus = 1<<31 - 1 // the Lehmer generator's modulus (int32max)
	mult    = 48271     // its multiplier
	skip    = 20        // the Lehmer steps Seed discards before entry 0
	// zeroSeed replaces a seed that reduces to 0, which the Lehmer
	// generator would keep at 0.
	zeroSeed = 89482311
)

var (
	// powers[j] is mult^j mod modulus: the factor taking a seed to its
	// j-th Lehmer step.
	powers [skip + 3*length + 1]uint64
	// cooked is math/rand's rngCooked, recovered at init from the
	// package's own stream.
	cooked [length]uint64
)

func init() {
	powers[0] = 1
	for j := 1; j < len(powers); j++ {
		powers[j] = mulmod(powers[j-1], mult)
	}
	cooked = recoverCooked()
}

// recoverCooked returns the table math/rand XORs into its seeded vector.
// It takes the first length draws of rand.NewSource(1), runs the
// generator's recurrence backwards to the vector Seed(1) left, and XORs
// away the Lehmer words of seed 1.
//
// Draw n reads the feed entry at (333−n) mod 607, which Seed wrote, and
// the tap entry at 606−n, which is draw n−273's output when n ≥ 273 and
// the seeded entry before that; it stores their sum at the feed index.
func recoverCooked() [length]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var out, v [length]uint64
	for n := range out {
		out[n] = src.Uint64()
	}
	feed := func(n int) int { return (2*length - tap - 1 - n) % length }
	for n := tap; n < length; n++ {
		v[feed(n)] = out[n] - out[n-tap]
	}
	for n := 0; n < tap; n++ {
		v[feed(n)] = out[n] - v[length-1-n]
	}
	for i := range v {
		v[i] ^= lehmerWord(1, i)
	}
	return v
}

// mulmod returns a·b mod modulus for a, b < modulus. The product is below
// 2⁶², and since 2³¹ ≡ 1 (mod 2³¹−1), two folds of the high bits onto the
// low ones bring it to at most 2³¹.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&modulus + p>>31
	p = p&modulus + p>>31
	if p >= modulus {
		p -= modulus
	}
	return p
}

// lehmerWord returns the Lehmer steps math/rand's Seed packs into entry i
// for a reduced seed.
func lehmerWord(seed uint64, i int) uint64 {
	j := skip + 3*i
	return mulmod(seed, powers[j+1])<<40 ^ mulmod(seed, powers[j+2])<<20 ^ mulmod(seed, powers[j+3])
}

// Source is a rand.Source64 giving rand.NewSource's stream. Use it
// through rand.New. Not safe for concurrent use.
type Source struct {
	seed      uint64 // the reduced seed, in [1, modulus)
	tap, feed int
	// fresh counts the draws left before every entry of vec has been
	// written since Seed; while it is positive, unwritten entries are
	// computed on read.
	fresh int
	vec   [length]uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to rand.NewSource(seed)'s state, reducing the
// seed as math/rand does: modulo 2³¹−1, with a negative remainder moved
// up by 2³¹−1 and zero replaced by 89482311.
func (s *Source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, length-tap
	s.fresh = length
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	if s.fresh > 0 {
		return int64(s.first() & mask)
	}
	return int64(s.step() & mask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.fresh > 0 {
		return s.first()
	}
	return s.step()
}

// step is a draw once every entry has been written since Seed: the feed
// entry gains the tap entry. It is small enough to inline, so Int63 and
// Uint64 cost what math/rand's do past the first length draws.
func (s *Source) step() uint64 {
	s.advance()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// first is a draw within length draws of Seed, computing the entries Seed
// did not write (see the package comment).
func (s *Source) first() uint64 {
	s.advance()
	t := s.vec[s.tap]
	if s.fresh > length-tap { // fewer than tap draws since Seed
		t = s.entry(s.tap)
	}
	s.fresh--
	x := s.entry(s.feed) + t
	s.vec[s.feed] = x
	return x
}

// advance moves tap and feed down one entry, wrapping at 0.
func (s *Source) advance() {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
}

// entry returns the value math/rand's Seed gives entry i.
func (s *Source) entry(i int) uint64 {
	return lehmerWord(s.seed, i) ^ cooked[i]
}
