package randsrc

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	// lehmerSkip is how many Lehmer steps math/rand's Seed takes before the
	// first word: word i reads the values at steps skip+3i, skip+3i+1 and
	// skip+3i+2.
	lehmerSkip = 21
)

// powers[i][j] is 48271^(lehmerSkip+3i+j) mod 2³¹−1, the jump from a seed
// to the j-th of the three values word i reads.
var powers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 1; k < lehmerSkip; k++ {
		x = mulMod(x, 48271)
	}
	for i := range p {
		for j := range p[i] {
			x = mulMod(x, 48271)
			p[i][j] = x
		}
	}
	return p
}()

// mulMod returns x·y mod 2³¹−1 for x, y < 2³¹−1 without a division: a
// product below 2⁶² folds to below 2³² and then to at most 2³¹−1, which it
// reaches only for a product that 2³¹−1 divides, and the seeding never
// forms one (the modulus is prime and both factors are below it).
func mulMod(x, y uint64) uint64 {
	t := x * y
	t = t&int32max + t>>31
	return t&int32max + t>>31
}

// start is math/rand's Seed rules: the seed modulo 2³¹−1, made
// non-negative, with 0 replaced by 89482311.
func start(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Source is math/rand's additive lagged Fibonacci generator. New and Seed
// fill its 607 words from one seed the way rand.NewSource does, bit for bit,
// so rand.New(New(seed)) draws exactly what rand.New(rand.NewSource(seed))
// draws. A Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state rand.NewSource(seed) starts in. Every word is
// a jump from the seed, so no word waits on another.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	x := start(seed)
	for i := range s.vec {
		p := &powers[i]
		s.vec[i] = int64(mulMod(x, p[0]))<<40 ^ int64(mulMod(x, p[1]))<<20 ^ int64(mulMod(x, p[2])) ^ rngCooked[i]
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
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

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
