package knn

import (
	"math/rand"
	"sort"
	"testing"

	"taskml/internal/mat"
)

// naiveQueryBlock is the reference scan the GEMM-distance path replaced:
// explicit per-pair squared differences followed by a full (d2, idx) sort.
func naiveQueryBlock(q *mat.Dense, fitted []*nnBlock, k int) [][]neighbor {
	out := make([][]neighbor, q.Rows)
	for r := 0; r < q.Rows; r++ {
		row := q.Row(r)
		var cand []neighbor
		for _, fb := range fitted {
			for i := 0; i < fb.x.Rows; i++ {
				t := fb.x.Row(i)
				var d2 float64
				for c, v := range row {
					diff := v - t[c]
					d2 += diff * diff
				}
				cand = append(cand, neighbor{d2: d2, idx: fb.offset + i, label: fb.labels[i]})
			}
		}
		sort.Slice(cand, func(a, b int) bool {
			if cand[a].d2 != cand[b].d2 {
				return cand[a].d2 < cand[b].d2
			}
			return cand[a].idx < cand[b].idx
		})
		if len(cand) > k {
			cand = cand[:k]
		}
		out[r] = cand
	}
	return out
}

func randBlocks(rng *rand.Rand, rowsPerBlock []int, dims int) []*nnBlock {
	var blocks []*nnBlock
	offset := 0
	for _, rows := range rowsPerBlock {
		x := mat.New(rows, dims)
		labels := make([]int, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < dims; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			labels[i] = rng.Intn(4)
		}
		blocks = append(blocks, &nnBlock{x: x, labels: labels, offset: offset, norms: mat.RowNormsInto(make([]float64, x.Rows), x)})
		offset += rows
	}
	return blocks
}

func TestQueryBlockMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	blocks := randBlocks(rng, []int{17, 5, 30}, 8)
	q := mat.New(11, 8)
	for i := 0; i < q.Rows; i++ {
		for j := 0; j < q.Cols; j++ {
			q.Set(i, j, rng.NormFloat64())
		}
	}
	// Make one query identical to a stored sample so the exact-match path
	// (d2 == 0, load-bearing for Distance weighting) is exercised.
	copy(q.Row(3), blocks[1].x.Row(2))

	for _, k := range []int{1, 2, 5, 52, 80} { // 80 > total candidates
		got := queryBlock(q, blocks, k)
		want := naiveQueryBlock(q, blocks, k)
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("k=%d row %d: %d neighbors, want %d", k, r, len(got[r]), len(want[r]))
			}
			for c := range want[r] {
				g, w := got[r][c], want[r][c]
				if g.idx != w.idx || g.label != w.label {
					t.Fatalf("k=%d row %d pos %d: (%v,%d) vs naive (%v,%d)", k, r, c, g.d2, g.idx, w.d2, w.idx)
				}
				tol := 1e-12 * (1 + w.d2)
				if diff := g.d2 - w.d2; diff > tol || diff < -tol {
					t.Fatalf("k=%d row %d pos %d: d2 %v vs naive %v", k, r, c, g.d2, w.d2)
				}
			}
		}
	}

	// The self-match must come back at exactly zero distance.
	if nb := queryBlock(q, blocks, 1)[3]; nb[0].d2 != 0 || nb[0].idx != blocks[1].offset+2 {
		t.Fatalf("self-match neighbor = %+v, want d2=0 idx=%d", nb[0], blocks[1].offset+2)
	}
}

// Duplicate points at identical distance must keep the naive scan's
// ascending-index tie-break through the heap.
func TestQueryBlockTieBreakOnIndex(t *testing.T) {
	x := mat.NewFromRows([][]float64{{1, 0}, {1, 0}, {1, 0}, {0, 2}})
	b := &nnBlock{x: x, labels: []int{0, 1, 2, 3}, offset: 10, norms: mat.RowNormsInto(make([]float64, x.Rows), x)}
	nb := queryBlock(mat.NewFromRows([][]float64{{0, 0}}), []*nnBlock{b}, 2)[0]
	if nb[0].idx != 10 || nb[1].idx != 11 {
		t.Fatalf("tie-break order = [%d %d], want [10 11]", nb[0].idx, nb[1].idx)
	}
}

func BenchmarkKNNQueryBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	const dims = 64
	blocks := randBlocks(rng, []int{512, 512, 512, 512}, dims)
	q := mat.New(256, dims)
	for i := 0; i < q.Rows; i++ {
		for j := 0; j < dims; j++ {
			q.Set(i, j, rng.NormFloat64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryBlock(q, blocks, 5)
	}
}
