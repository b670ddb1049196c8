package randsrc

import (
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's Seed rules turn: 0 and the
// multiples of 2³¹−1 (replaced by 89482311), negative seeds (made
// non-negative), and the extremes of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	1<<31 - 1, -(1<<31 - 1), 1<<31 - 2, 1 << 31, -(1 << 31), 2 * (1<<31 - 1),
	1 << 62, -(1 << 62), 1<<63 - 1, -1 << 63, -1<<63 + 1,
}

// draw applies the k-th operation of a mix that reaches every path a
// caller of rand.Rand takes through its source: Int63, Uint64, Intn on a
// power of two and on bounds where Int31n rejects up to half its draws,
// Int63n, Float64 and Perm. It returns the values drawn.
func draw(r *rand.Rand, k int) []int64 {
	switch k % 8 {
	case 0:
		return []int64{r.Int63()}
	case 1:
		return []int64{int64(r.Uint64())}
	case 2:
		return []int64{int64(r.Intn(1 << (k % 31)))}
	case 3:
		return []int64{int64(r.Intn(1<<30 + 1 + k))}
	case 4:
		return []int64{int64(r.Intn(3 + k%1000))}
	case 5:
		return []int64{r.Int63n(1<<62 + 1 + int64(k))}
	case 6:
		return []int64{int64(r.Float64() * (1 << 53))}
	default:
		var out []int64
		for _, v := range r.Perm(k % 40) {
			out = append(out, int64(v))
		}
		return out
	}
}

// sameStream compares n draws of the mix from a Source and from math/rand.
func sameStream(t *testing.T, seed int64, n int) {
	t.Helper()
	got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		g, w := draw(got, k), draw(want, k)
		if len(g) != len(w) {
			t.Fatalf("seed %d draw %d: %v, math/rand gives %v", seed, k, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("seed %d draw %d: %v, math/rand gives %v", seed, k, g, w)
			}
		}
	}
}

// TestSourceMatchesMathRand: 3 000 draws of the mix agree with math/rand for
// the edge seeds and 2 000 more that cover both signs and every magnitude.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	gen := rand.New(rand.NewSource(53))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(gen.Uint64())>>(i%64))
	}
	n := 3000
	if testing.Short() {
		seeds, n = seeds[:200], 600
	}
	for _, seed := range seeds {
		sameStream(t, seed, n)
	}
}

// Re-seeding a used Source restarts it at the new seed's state, as
// rand.Rand.Seed does for a math/rand source.
func TestSeedResets(t *testing.T) {
	got, want := rand.New(New(7)), rand.New(rand.NewSource(7))
	for k := 0; k < 1000; k++ {
		got.Int63()
	}
	for _, seed := range edgeSeeds {
		got.Seed(seed)
		want.Seed(seed)
		for k := 0; k < 700; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("re-seeded %d, draw %d: %d, math/rand gives %d", seed, k, g, w)
			}
		}
	}
}

// mulMod agrees with the division it replaces at the ends of its range.
func TestMulModMatchesDivision(t *testing.T) {
	vals := []uint64{1, 2, 48271, 44488, 3399, 1 << 30, 1<<31 - 2, 1<<31 - 3, 89482311}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := mulMod(x, y), x*y%int32max; got != want {
				t.Fatalf("mulMod(%d, %d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

// FuzzSourceMatchesMathRand: for any seed and draw count, the mix of draws
// from rand.New(New(seed)) is rand.New(rand.NewSource(seed))'s.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(-7919), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, seed, int(n%4096))
	})
}

// Seeding plus one draw, the work an rf_bootstrap, rf_split or rf_subtree
// task spends before its first use of the stream.
func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("randsrc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.New(New(int64(i))).Int63()
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.New(rand.NewSource(int64(i))).Int63()
		}
	})
}
