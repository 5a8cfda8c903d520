package pktgen

import (
	"math"
	"math/rand"
)

// lazySource is math/rand's additive lagged Fibonacci generator — the
// Source rand.NewSource returns — with the same output bit for bit,
// but seeded lazily. rand.NewSource fills its whole 607-word table on
// every seeding, running the Lehmer seeding generator 1,841 times; a
// packet draws a few dozen words, so that fill was nearly all of a
// packet's cost. Here table entry i (the seeding generator's states
// 21+3i, 22+3i and 23+3i, folded and xored with a fixed constant) is
// computed in O(1) from a table of multiplier powers, only when a draw
// reads it. The first rngTap draws read untouched entries only; a
// source drawn further fills its table once and continues exactly as
// math/rand's does. Intn and Uint32 are *rand.Rand's methods of the
// same name, so no rand.Rand is needed on top.
type lazySource struct {
	x0   uint64 // the seeding generator's start state
	n    int    // draws taken from untouched entries
	full bool   // vec holds the table; tap and feed index it
	tap  int
	feed int
	vec  *[rngLen]int64
}

var _ rand.Source64 = (*lazySource)(nil)

// The generator's geometry and its Lehmer seeding generator
// x' = rngMul·x mod rngMod, as math/rand defines them.
const (
	rngLen  = 607
	rngTap  = 273
	rngMod  = 1<<31 - 1
	rngMul  = 48271
	rngMask = 1<<63 - 1
)

var (
	// seedPow[i] is rngMul^(21+3i) mod rngMod: it takes the seed to
	// the seeding generator's first state for table entry i.
	seedPow [rngLen]uint64
	// cooked[i] is the constant math/rand xors into table entry i.
	cooked [rngLen]int64
)

// init builds seedPow and recovers math/rand's cooked constants from
// the first rngLen outputs of rand.NewSource(1). Output k adds the
// words at feed index 333-k and tap index 606-k (mod rngLen) and
// stores the sum at the feed index, so a tap index is first read
// either untouched (k < rngTap) or as output k-rngTap. That gives
// each seeded word in closed form: outputs rngTap..333 yield words
// 60..0, outputs 334..606 words 606..334, and then outputs 0..272
// words 333..61.
func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * rngMul % rngMod
	}
	for i := range seedPow {
		seedPow[i] = p
		for n := 0; n < 3; n++ {
			p = p * rngMul % rngMod
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		v[(rngLen+rngLen-rngTap-1-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[rngLen-rngTap-1-k] = out[k] - v[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ seedWord(1, i)
	}
}

// seedWord is table entry i of a generator whose seeding state starts
// at x0, before the cooked constant: three consecutive Lehmer states
// folded into one word.
func seedWord(x0 uint64, i int) int64 {
	x := x0 * seedPow[i] % rngMod
	u := int64(x) << 40
	x = x * rngMul % rngMod
	u ^= int64(x) << 20
	x = x * rngMul % rngMod
	return u ^ int64(x)
}

// newLazySource returns a Source with rand.NewSource(seed)'s output.
func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to rand.NewSource(seed)'s initial state.
func (s *lazySource) Seed(seed int64) {
	seed %= rngMod
	if seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n, s.full = uint64(seed), 0, false
}

// entry is untouched table entry i.
func (s *lazySource) entry(i int) int64 { return seedWord(s.x0, i) ^ cooked[i] }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint32 returns a pseudo-random 32-bit value, as rand.Rand.Uint32.
func (s *lazySource) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Intn returns a pseudo-random number in [0, n), as rand.Rand.Intn for
// 0 < n < 2^31: rejection sampling over 31-bit draws.
func (s *lazySource) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("pktgen: Intn bound out of range")
	}
	n31 := int32(n)
	if n31&(n31-1) == 0 {
		return int(int32(s.Int63()>>32) & (n31 - 1))
	}
	limit := int32(math.MaxInt32 - (1<<31)%uint32(n31))
	v := int32(s.Int63() >> 32)
	for v > limit {
		v = int32(s.Int63() >> 32)
	}
	return int(v % n31)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *lazySource) Uint64() uint64 {
	if !s.full {
		if s.n < rngTap {
			n := s.n
			s.n++
			return uint64(s.entry(rngLen-rngTap-1-n) + s.entry(rngLen-1-n))
		}
		s.fill()
	}
	return s.step()
}

// fill materializes the table as seeded and replays the draws taken so
// far on it.
func (s *lazySource) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.entry(i)
	}
	s.tap, s.feed, s.full = 0, rngLen-rngTap, true
	for ; s.n > 0; s.n-- {
		s.step()
	}
}

// step is math/rand's draw on the materialized table.
func (s *lazySource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
