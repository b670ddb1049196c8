package randsrc

import "math/rand"

// rngCooked is math/rand's seeding table: each word of a seeded state is
// rngCooked's word XOR three values of the seed's Lehmer chain. It is read
// back from math/rand at initialisation, so it is the table of the Go
// release the program is built with, and nothing here is a copy that could
// fall out of step. TestSourceMatchesMathRand and FuzzSourceMatchesMathRand
// compare whole streams against math/rand.
var rngCooked [rngLen]int64

func init() {
	// A fresh source's first rngLen draws visit every word once as the feed:
	// draw k (from 0) adds the tap word rngLen−1−k, which draw k−rngTap has
	// already overwritten when k ≥ rngTap, to feed word (rngLen−rngTap−1−k)
	// mod rngLen and stores the sum there. Undone from the last draw back,
	// they give the state the seeding left.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		feed, tap := (2*rngLen-rngTap-1-k)%rngLen, rngLen-1-k
		if k >= rngTap {
			vec[feed] = out[k] - out[k-rngTap]
		} else {
			vec[feed] = out[k] - vec[tap]
		}
	}
	// While rngCooked is zero, Seed leaves the chain's part of each word.
	var chain Source
	chain.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ chain.vec[i]
	}
}
