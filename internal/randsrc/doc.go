// Package randsrc is math/rand's v1 source, seeded by jump-ahead.
//
// rand.NewSource(seed) fills a 607-word state from 1 841 steps of the
// Lehmer chain x ← 48271·x mod (2³¹−1), each a Schrage division that waits
// on the one before. The random forest makes one source a seeded task, about
// 2 200 of them a cross-validation pass, so that serial chain is a
// measurable share of a pass's CPU. Word i of the state reads the chain at
// steps 21+3i, 22+3i and 23+3i, and step k is the seed times 48271ᵏ: with
// those powers tabled once, every word is three independent multiplications
// and a division-free Mersenne fold.
//
// # Public surface
//
// New(seed) returns a *Source, a rand.Source64 whose stream equals
// rand.NewSource(seed)'s for every seed, under the same Seed rules (the seed
// modulo 2³¹−1, 0 replaced by 89482311); it is the v1 generator, not
// math/rand/v2's. The seeding table each word is XORed with is read back
// from math/rand itself at initialisation; the stream tests and
// FuzzSourceMatchesMathRand compare against math/rand, so they prove both
// the table and the jump-ahead.
//
// # Concurrency and ownership
//
// A Source, like rand.NewSource's, is owned by one goroutine. The tables
// are built once at package initialisation and only read afterwards, so New
// is safe to call from any goroutine.
package randsrc
