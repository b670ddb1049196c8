package forest

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"taskml/internal/compss"
	"taskml/internal/dsarray"
	"taskml/internal/mat"
)

func newRT() *compss.Runtime { return compss.New(compss.Config{Workers: 4}) }

func trainSet(t testing.TB, x *mat.Dense, y []int) *TrainSet {
	t.Helper()
	ts, err := NewTrainSet(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func blobs(rng *rand.Rand, n, d int, sep float64) (*mat.Dense, []int) {
	x := mat.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		off := -sep / 2
		if c == 1 {
			off = sep / 2
		}
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64()+off)
		}
	}
	return x, y
}

func xorData(rng *rand.Rand, n int) (*mat.Dense, []int) {
	x := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	return x, y
}

func TestBuildTreeSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 200, 3, 5)
	tree := BuildTree(trainSet(t, x, y), nil, 2, TreeParams{}, rng)
	if err := tree.Validate(2); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < x.Rows; i++ {
		if tree.PredictLabel(x.Row(i)) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows); acc < 0.97 {
		t.Fatalf("tree training accuracy %v", acc)
	}
}

func TestBuildTreeHandlesXor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := xorData(rng, 300)
	tree := BuildTree(trainSet(t, x, y), nil, 2, TreeParams{MaxFeatures: 2}, rng)
	correct := 0
	for i := 0; i < x.Rows; i++ {
		if tree.PredictLabel(x.Row(i)) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows); acc < 0.9 {
		t.Fatalf("tree accuracy %v on XOR (axis-aligned splits should handle it)", acc)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := xorData(rng, 300)
	tree := BuildTree(trainSet(t, x, y), nil, 2, TreeParams{MaxDepth: 3}, rng)
	if d := tree.Depth(); d > 4 { // depth counts nodes, MaxDepth counts splits
		t.Fatalf("tree depth %d with MaxDepth 3", d)
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	x := mat.NewFromRows([][]float64{{0}, {1}, {2}})
	y := []int{1, 1, 1}
	tree := BuildTree(trainSet(t, x, y), nil, 2, TreeParams{}, rand.New(rand.NewSource(4)))
	if !tree.Leaf {
		t.Fatal("pure training set must yield a single leaf")
	}
	if tree.Probs[1] != 1 {
		t.Fatalf("leaf probs = %v", tree.Probs)
	}
}

func TestBestSplitKnownThreshold(t *testing.T) {
	x := mat.NewFromRows([][]float64{{0}, {1}, {10}, {11}})
	y := []int{0, 0, 1, 1}
	sp := BestSplit(trainSet(t, x, y), []int{0, 1, 2, 3}, 2, TreeParams{MaxFeatures: 1}, rand.New(rand.NewSource(5)))
	if !sp.Found {
		t.Fatal("split not found")
	}
	if sp.Threshold < 1 || sp.Threshold > 10 {
		t.Fatalf("threshold %v outside (1, 10)", sp.Threshold)
	}
	if len(sp.Left) != 2 || len(sp.Right) != 2 {
		t.Fatalf("partition %d/%d", len(sp.Left), len(sp.Right))
	}
}

func TestBestSplitNoGain(t *testing.T) {
	// Identical feature values: no split possible.
	x := mat.NewFromRows([][]float64{{5}, {5}, {5}, {5}})
	y := []int{0, 1, 0, 1}
	sp := BestSplit(trainSet(t, x, y), []int{0, 1, 2, 3}, 2, TreeParams{}, rand.New(rand.NewSource(6)))
	if sp.Found {
		t.Fatal("split found on constant feature")
	}
}

// Property: every tree built on random data is structurally valid and
// partitions are consistent.
func TestTreeStructureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		d := 1 + rng.Intn(5)
		x := mat.New(n, d)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			y[i] = rng.Intn(3)
			for j := 0; j < d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		tree := BuildTree(trainSet(t, x, y), nil, 3, TreeParams{MaxDepth: 6}, rng)
		if tree.Validate(3) != nil {
			return false
		}
		// Every prediction must be a valid class.
		for i := 0; i < n; i++ {
			l := tree.PredictLabel(x.Row(i))
			if l < 0 || l > 2 {
				return false
			}
		}
		return tree.Depth() <= 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomForestAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := blobs(rng, 300, 4, 3)
	rt := newRT()
	xa := dsarray.FromMatrix(rt.Main(), x, 75, 4)
	ya := dsarray.FromLabels(rt.Main(), y, 75)
	f := &RandomForest{Params: Params{NEstimators: 12, Seed: 7}}
	if err := f.Fit(xa, ya); err != nil {
		t.Fatal(err)
	}
	acc, err := f.Score(xa, ya)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.93 {
		t.Fatalf("forest accuracy %v", acc)
	}
}

func TestRandomForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xTr, yTr := blobs(rng, 300, 6, 1.6)
	xTe, yTe := blobs(rng, 300, 6, 1.6)

	evalForest := func(nEst int) float64 {
		rt := newRT()
		xa := dsarray.FromMatrix(rt.Main(), xTr, 100, 6)
		ya := dsarray.FromLabels(rt.Main(), yTr, 100)
		f := &RandomForest{Params: Params{NEstimators: nEst, Seed: 8, Tree: TreeParams{MaxDepth: 10}}}
		if err := f.Fit(xa, ya); err != nil {
			t.Fatal(err)
		}
		xq := dsarray.FromMatrix(rt.Main(), xTe, 100, 6)
		yq := dsarray.FromLabels(rt.Main(), yTe, 100)
		acc, err := f.Score(xq, yq)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	one := evalForest(1)
	many := evalForest(30)
	if many < one-0.02 {
		t.Fatalf("30-tree forest (%v) worse than single tree (%v)", many, one)
	}
}

func TestForestGraphShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := blobs(rng, 80, 3, 3)
	rt := newRT()
	xa := dsarray.FromMatrix(rt.Main(), x, 20, 3)
	ya := dsarray.FromLabels(rt.Main(), y, 20)
	f := &RandomForest{Params: Params{NEstimators: 4, DistrDepth: 2, Seed: 9}}
	if err := f.Fit(xa, ya); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	counts := rt.Graph().CountByName()
	// Per estimator: 2^0 + 2^1 = 3 split tasks, 2^2 = 4 subtree tasks,
	// 3 join tasks, 1 bootstrap.
	if counts["rf_split"] != 4*3 {
		t.Fatalf("rf_split = %d, want 12", counts["rf_split"])
	}
	if counts["rf_subtree"] != 4*4 {
		t.Fatalf("rf_subtree = %d, want 16", counts["rf_subtree"])
	}
	if counts["rf_join"] != 4*3 {
		t.Fatalf("rf_join = %d, want 12", counts["rf_join"])
	}
	if counts["rf_bootstrap"] != 4 || counts["rf_gather"] != 1 {
		t.Fatalf("bootstrap/gather counts: %v", counts)
	}
	// The task count must not depend on blocking: refit with different
	// blocks and compare.
	rt2 := newRT()
	xa2 := dsarray.FromMatrix(rt2.Main(), x, 10, 3)
	ya2 := dsarray.FromLabels(rt2.Main(), y, 10)
	f2 := &RandomForest{Params: Params{NEstimators: 4, DistrDepth: 2, Seed: 9}}
	if err := f2.Fit(xa2, ya2); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Barrier(); err != nil {
		t.Fatal(err)
	}
	c2 := rt2.Graph().CountByName()
	for _, name := range []string{"rf_split", "rf_subtree", "rf_join", "rf_bootstrap"} {
		if c2[name] != counts[name] {
			t.Fatalf("%s count depends on block size: %d vs %d", name, c2[name], counts[name])
		}
	}
}

func TestForestDistrDepthEquivalence(t *testing.T) {
	// distr_depth changes the task structure, not the model family:
	// accuracies should be in the same ballpark.
	rng := rand.New(rand.NewSource(10))
	x, y := blobs(rng, 200, 4, 3)
	accs := map[int]float64{}
	for _, dd := range []int{1, 2, 3} {
		rt := newRT()
		xa := dsarray.FromMatrix(rt.Main(), x, 50, 4)
		ya := dsarray.FromLabels(rt.Main(), y, 50)
		f := &RandomForest{Params: Params{NEstimators: 8, DistrDepth: dd, Seed: 10}}
		if err := f.Fit(xa, ya); err != nil {
			t.Fatal(err)
		}
		acc, err := f.Score(xa, ya)
		if err != nil {
			t.Fatal(err)
		}
		accs[dd] = acc
	}
	for dd, acc := range accs {
		if acc < 0.9 {
			t.Fatalf("distr_depth %d accuracy %v", dd, acc)
		}
	}
}

func TestForestTreesExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := blobs(rng, 100, 3, 4)
	rt := newRT()
	xa := dsarray.FromMatrix(rt.Main(), x, 25, 3)
	ya := dsarray.FromLabels(rt.Main(), y, 25)
	f := &RandomForest{Params: Params{NEstimators: 5, Seed: 11}}
	if err := f.Fit(xa, ya); err != nil {
		t.Fatal(err)
	}
	trees, err := f.Trees(rt.Main())
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 5 {
		t.Fatalf("%d trees", len(trees))
	}
	for i, tr := range trees {
		if err := tr.Validate(2); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
}

func TestForestErrors(t *testing.T) {
	rt := newRT()
	x := dsarray.FromMatrix(rt.Main(), mat.New(10, 2), 5, 2)
	yShort := dsarray.FromLabels(rt.Main(), make([]int, 8), 5)
	f := &RandomForest{}
	if err := f.Fit(x, yShort); err == nil {
		t.Fatal("want mismatch error")
	}
	if _, err := f.Predict(x); err != ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	deep := &RandomForest{Params: Params{DistrDepth: 20}}
	yGood := dsarray.FromLabels(rt.Main(), make([]int, 10), 5)
	if err := deep.Fit(x, yGood); err == nil {
		t.Fatal("want DistrDepth >= MaxDepth error")
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y := blobs(rng, 120, 3, 2)
	run := func() []int {
		rt := newRT()
		xa := dsarray.FromMatrix(rt.Main(), x, 30, 3)
		ya := dsarray.FromLabels(rt.Main(), y, 30)
		f := &RandomForest{Params: Params{NEstimators: 6, Seed: 99}}
		if err := f.Fit(xa, ya); err != nil {
			t.Fatal(err)
		}
		pred, err := f.Predict(xa)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := dsarray.CollectLabels(pred)
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different forests")
		}
	}
}

// bestSplitReference is BestSplit as it stood before the comparator-free
// rewrite, verbatim: a sort.Slice of (value, label, index) structs per
// feature. BestSplit must agree with it bit for bit on every input without a
// NaN; under NaN its comparator is not a strict weak order and its answer
// depends on the sort's internals.
func bestSplitReference(x *mat.Dense, y []int, idx []int, nClasses int, p TreeParams, rng *rand.Rand) Split {
	p = p.withDefaults()
	nFeat := p.MaxFeatures
	if nFeat <= 0 {
		nFeat = int(math.Sqrt(float64(x.Cols)))
		if nFeat < 1 {
			nFeat = 1
		}
	}
	if nFeat > x.Cols {
		nFeat = x.Cols
	}
	feats := rng.Perm(x.Cols)[:nFeat]

	total := float64(len(idx))
	parentCounts := make([]float64, nClasses)
	for _, i := range idx {
		parentCounts[y[i]]++
	}
	parentGini := giniOf(parentCounts, total)
	if parentGini == 0 {
		return Split{}
	}

	type pair struct {
		v float64
		y int
		i int
	}
	best := Split{}
	bestScore := parentGini - 1e-12

	vals := make([]pair, len(idx))
	leftCounts := make([]float64, nClasses)
	for _, f := range feats {
		for k, i := range idx {
			vals[k] = pair{v: x.At(i, f), y: y[i], i: i}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			if vals[k].v == vals[k+1].v {
				continue
			}
			nl := float64(k + 1)
			nr := total - nl
			rightCounts := make([]float64, nClasses)
			for c := range rightCounts {
				rightCounts[c] = parentCounts[c] - leftCounts[c]
			}
			score := (nl*giniOf(leftCounts, nl) + nr*giniOf(rightCounts, nr)) / total
			if score < bestScore {
				bestScore = score
				best.Found = true
				best.Feature = f
				best.Threshold = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	if !best.Found {
		return best
	}
	for _, i := range idx {
		if x.At(i, best.Feature) <= best.Threshold {
			best.Left = append(best.Left, i)
		} else {
			best.Right = append(best.Right, i)
		}
	}
	return best
}

// buildTreeReference is buildRec over bestSplitReference.
func buildTreeReference(x *mat.Dense, y []int, idx []int, nClasses int, p TreeParams, rng *rand.Rand, depth int) *Node {
	if depth >= p.MaxDepth || len(idx) < p.MinSamplesSplit {
		return leafNode(y, idx, nClasses)
	}
	sp := bestSplitReference(x, y, idx, nClasses, p, rng)
	if !sp.Found || len(sp.Left) == 0 || len(sp.Right) == 0 {
		return leafNode(y, idx, nClasses)
	}
	return &Node{
		Feature:   sp.Feature,
		Threshold: sp.Threshold,
		Left:      buildTreeReference(x, y, sp.Left, nClasses, p, rng, depth+1),
		Right:     buildTreeReference(x, y, sp.Right, nClasses, p, rng, depth+1),
	}
}

func sameSplit(a, b Split) bool {
	return a.Found == b.Found && a.Feature == b.Feature &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		slices.Equal(a.Left, b.Left) && slices.Equal(a.Right, b.Right)
}

// splitMatrix draws a rows×d matrix whose columns are, at random, constant,
// quantised to 3–8 distinct values (long tie runs, some of them mixing -0
// and +0), heavy-tailed over hundreds of orders of magnitude with a few
// infinities, or plain Gaussian.
func splitMatrix(rng *rand.Rand, rows, d int) *mat.Dense {
	x := mat.New(rows, d)
	for j := 0; j < d; j++ {
		kind, levels, c := rng.Intn(6), 3+rng.Intn(6), rng.NormFloat64()
		for i := 0; i < rows; i++ {
			v := rng.NormFloat64()
			switch kind {
			case 0:
				v = c
			case 1:
				v = math.Floor(v*float64(levels)/4) / 2
				if v == 0 && rng.Intn(2) == 0 {
					v = math.Copysign(0, -1)
				}
			case 2:
				v = math.Copysign(math.Exp(200*v), rng.NormFloat64())
			}
			x.Set(i, j, v)
		}
	}
	return x
}

// splitLabels draws labels for x's rows: all one class (one time in eight),
// uniform (three in eight), or following a random feature with label noise.
func splitLabels(rng *rand.Rand, x *mat.Dense, nClasses int) []int {
	y := make([]int, x.Rows)
	switch f, mode := rng.Intn(x.Cols), rng.Intn(8); {
	case mode == 0:
		for i := range y {
			y[i] = nClasses - 1
		}
	case mode < 4:
		for i := range y {
			y[i] = rng.Intn(nClasses)
		}
	default:
		for i := range y {
			c := int(math.Floor(x.At(i, f)+rng.NormFloat64()/3)) + nClasses/2
			y[i] = min(max(c, 0), nClasses-1)
		}
	}
	return y
}

// BestSplit against the sort.Slice implementation it replaced, field for
// field, over seeded nodes: bootstrap indices with repeats, 2–5 classes,
// labels that follow a feature, random labels and pure nodes, tie-heavy and
// constant columns, MaxFeatures 0, 1 and d.
func TestBestSplitMatchesReference(t *testing.T) {
	const matrices, perMatrix = 40, 55
	rng := rand.New(rand.NewSource(1601))
	found, cases := 0, 0
	for m := 0; m < matrices; m++ {
		rows, d := 2+rng.Intn(899), 1+rng.Intn(120)
		x := splitMatrix(rng, rows, d)
		ts := trainSet(t, x, make([]int, rows)) // the ranks do not read the labels
		for k := 0; k < perMatrix; k++ {
			// Small nodes dominate a tree, so they dominate here.
			u := rng.Float64()
			n := 2 + int(898*u*u)
			nClasses := 2 + rng.Intn(4)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(rows)
			}
			y := splitLabels(rng, x, nClasses)
			ts.Y = y
			p := TreeParams{MaxFeatures: []int{0, 1, d}[rng.Intn(3)]}
			seed := rng.Int63()
			gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := BestSplit(ts, idx, nClasses, p, gotRng)
			want := bestSplitReference(x, y, idx, nClasses, p, wantRng)
			if !sameSplit(got, want) {
				t.Fatalf("matrix %d case %d (n=%d d=%d classes=%d %+v):\n got %+v\nwant %+v",
					m, k, n, d, nClasses, p, got, want)
			}
			if gotRng.Int63() != wantRng.Int63() {
				t.Fatalf("matrix %d case %d: rng streams diverge after the split", m, k)
			}
			cases++
			if got.Found {
				found++
			}
		}
	}
	if cases < 2000 || found < cases/3 || found > cases-cases/10 {
		t.Fatalf("%d cases, %d with a split: the generator no longer covers both outcomes", cases, found)
	}
}

// A 5-fold RF cross-validation grown by BuildTree and by the reference
// split search from the same seeds: the same trees, so the same confusion
// matrix.
func TestForestCVMatchesReferenceSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	const n, d, folds, trees = 400, 30, 5, 8
	x, y := blobs(rng, n, d, 0.9)
	ts := trainSet(t, x, y)
	p := TreeParams{}.withDefaults()
	var got, want [2][2]int
	for fold := 0; fold < folds; fold++ {
		var train []int
		for i := 0; i < n; i++ {
			if i%folds != fold {
				train = append(train, i)
			}
		}
		var forest, ref []*Node
		for e := 0; e < trees; e++ {
			boot := make([]int, len(train))
			for i := range boot {
				boot[i] = train[rng.Intn(len(train))]
			}
			seed := rng.Int63()
			forest = append(forest, BuildTree(ts, boot, 2, p, rand.New(rand.NewSource(seed))))
			ref = append(ref, buildTreeReference(x, y, boot, 2, p, rand.New(rand.NewSource(seed)), 0))
		}
		vote := func(ts []*Node, row []float64) int {
			var p1 float64
			for _, tr := range ts {
				p1 += tr.PredictProbs(row)[1]
			}
			if p1 > float64(len(ts))/2 {
				return 1
			}
			return 0
		}
		for i := fold; i < n; i += folds {
			got[y[i]][vote(forest, x.Row(i))]++
			want[y[i]][vote(ref, x.Row(i))]++
		}
	}
	if got != want {
		t.Fatalf("confusion matrix %v, reference split gives %v", got, want)
	}
	if acc := float64(got[0][0]+got[1][1]) / n; acc < 0.7 || acc == 1 {
		t.Fatalf("accuracy %v: the problem is too easy or too hard to tell two forests apart", acc)
	}
}

// sameTree compares two trees node for node, thresholds and leaf
// distributions by their bits.
func sameTree(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Leaf == b.Leaf && a.Feature == b.Feature &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		slices.EqualFunc(a.Probs, b.Probs, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) &&
		sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// BuildTree against buildTreeReference, whole trees node for node, over
// seeded bootstrap samples of splitMatrix columns (constant, tie-heavy with
// mixed ±0, heavy-tailed with ±Inf, Gaussian), 2–5 classes, MaxFeatures 0,
// 1 and d: the in-place partition and the shared scratch change no node and
// no draw.
func TestBuildTreeMatchesReference(t *testing.T) {
	const matrices, perMatrix = 12, 5
	rng := rand.New(rand.NewSource(1604))
	splits := 0
	for m := 0; m < matrices; m++ {
		rows, d := 2+rng.Intn(399), 1+rng.Intn(40)
		x := splitMatrix(rng, rows, d)
		ts := trainSet(t, x, make([]int, rows))
		for k := 0; k < perMatrix; k++ {
			nClasses := 2 + rng.Intn(4)
			boot := make([]int, rows)
			for i := range boot {
				boot[i] = rng.Intn(rows)
			}
			y := splitLabels(rng, x, nClasses)
			ts.Y = y
			p := TreeParams{MaxFeatures: []int{0, 1, d}[rng.Intn(3)]}.withDefaults()
			seed := rng.Int63()
			gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := BuildTree(ts, boot, nClasses, p, gotRng)
			want := buildTreeReference(x, y, boot, nClasses, p, wantRng, 0)
			if !sameTree(got, want) {
				t.Fatalf("matrix %d case %d (rows=%d d=%d classes=%d %+v): trees differ (%d vs %d nodes)",
					m, k, rows, d, nClasses, p, got.CountNodes(), want.CountNodes())
			}
			if gotRng.Int63() != wantRng.Int63() {
				t.Fatalf("matrix %d case %d: rng streams diverge after the tree", m, k)
			}
			splits += got.CountNodes() / 2
		}
	}
	if splits < 500 {
		t.Fatalf("%d splits in %d trees: the generator no longer grows trees", splits, matrices*perMatrix)
	}
}

// The rank table: dense ranks whose order is the values' order, one rank
// for −0 and +0, none for NaN; and a NaN row outside a node leaves its
// feature usable.
func TestTrainSetRanks(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	x := mat.NewFromRows([][]float64{
		{3, 0, 7}, {negZero, 1, 7}, {nan, 2, 7}, {0, 3, 7}, {math.Inf(-1), 4, 7}, {3, 5, 7}, {math.Inf(1), 6, 7},
	})
	ts := trainSet(t, x, []int{0, 0, 0, 1, 1, 1, 1})
	rt := ts.ranks
	if want := []bool{true, false, false}; !slices.Equal(rt.nan, want) {
		t.Fatalf("NaN flags %v, want %v", rt.nan, want)
	}
	if want := []int32{2, 1, -1, 1, 0, 2, 3}; !slices.Equal(rt.rank[:x.Rows], want) {
		t.Fatalf("column 0 ranks %v, want %v", rt.rank[:x.Rows], want)
	}
	if got := rt.vals[2]; len(got) != 1 || got[0] != 7 || rt.rank[2*x.Rows+4] != 0 {
		t.Fatalf("constant column: values %v", got)
	}
	// The same properties on the split search's own generator, NaNs added.
	rng := rand.New(rand.NewSource(1605))
	x = splitMatrix(rng, 300, 30)
	for k := 0; k < 40; k++ {
		x.Data[rng.Intn(len(x.Data))] = nan
	}
	ts = trainSet(t, x, make([]int, x.Rows))
	for f := 0; f < x.Cols; f++ {
		vals, rank := ts.ranks.vals[f], ts.ranks.rank[f*x.Rows:(f+1)*x.Rows]
		seen := make([]bool, len(vals))
		for i, r := range rank {
			v := x.At(i, f)
			if math.IsNaN(v) != (r < 0) || (r >= 0 && vals[r] != v) {
				t.Fatalf("column %d row %d: value %v has rank %d", f, i, v, r)
			}
			if r >= 0 {
				seen[r] = true
			}
		}
		if slices.Contains(seen, false) {
			t.Fatalf("column %d: ranks not dense", f)
		}
		for r := 1; r < len(vals); r++ {
			if !(vals[r-1] < vals[r]) {
				t.Fatalf("column %d: values not strictly ascending at rank %d: %v", f, r, vals)
			}
		}
		if ts.ranks.nan[f] != slices.ContainsFunc(rank, func(r int32) bool { return r < 0 }) {
			t.Fatalf("column %d: NaN flag %v disagrees with the ranks", f, ts.ranks.nan[f])
		}
	}

	// Row 2's NaN outside the node: column 0 still splits it.
	sp := BestSplit(trainSet(t, mat.NewFromRows([][]float64{{0}, {1}, {nan}, {10}, {11}}), []int{0, 0, 1, 1, 1}),
		[]int{0, 1, 3, 4}, 2, TreeParams{}, rand.New(rand.NewSource(1)))
	if !sp.Found || sp.Threshold != 5.5 {
		t.Fatalf("NaN outside the node: %+v, want a split at 5.5", sp)
	}

	if _, err := NewTrainSet(mat.New(3, 2), make([]int, 6)); err == nil {
		t.Fatal("NewTrainSet accepted 6 labels for 3 rows")
	}
	if _, err := NewTrainSet(nil, nil); err == nil {
		t.Fatal("NewTrainSet accepted a nil matrix")
	}
}

// A NaN among a node's values of a sampled feature leaves that feature
// without an order to scan: it offers no threshold, whatever the other
// values are. The feature draw is consumed all the same.
func TestBestSplitSkipsFeatureWithNaN(t *testing.T) {
	nan := math.NaN()
	// Column 0 separates the classes perfectly but for its NaN in row 2;
	// column 1 separates them less well.
	x := mat.NewFromRows([][]float64{{0, 0}, {1, 5}, {nan, 1}, {10, 6}, {11, 7}, {12, 2}})
	y := []int{0, 0, 0, 1, 1, 1}
	ts := trainSet(t, x, y)
	p := TreeParams{MaxFeatures: 2}

	rng := rand.New(rand.NewSource(9))
	sp := BestSplit(ts, []int{0, 1, 2, 3, 4, 5}, 2, p, rng)
	if !sp.Found || sp.Feature != 1 {
		t.Fatalf("with a NaN in column 0: %+v, want a split on column 1", sp)
	}
	after := rand.New(rand.NewSource(9))
	after.Perm(2)
	if rng.Int63() != after.Int63() {
		t.Fatal("the feature draw was not consumed exactly once")
	}

	// The NaN row outside the node: column 0 is an ordinary feature.
	sp = BestSplit(ts, []int{0, 1, 3, 4, 5, 5}, 2, p, rand.New(rand.NewSource(9)))
	if !sp.Found || sp.Feature != 0 || sp.Threshold != 5.5 {
		t.Fatalf("NaN outside the node: %+v, want column 0 at 5.5", sp)
	}

	// Every sampled feature has one: no split.
	x.Set(4, 1, nan)
	if sp = BestSplit(trainSet(t, x, y), []int{0, 1, 2, 3, 4, 5}, 2, p, rand.New(rand.NewSource(9))); sp.Found {
		t.Fatalf("all features NaN: %+v, want no split", sp)
	}
}

// splitBenchNode is one root node of the CV workloads' forest: a fold's 800
// training rows after PCA (115 components), bootstrap indices, √d features.
func splitBenchNode(tb testing.TB, n int) (*TrainSet, []int) {
	rng := rand.New(rand.NewSource(1603))
	x, y := blobs(rng, 800, 115, 0.5)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(x.Rows)
	}
	return trainSet(tb, x, y), idx
}

// The scratch of a split search is allocated per call, not per candidate
// threshold: a node with eight times the thresholds allocates no more often.
func TestBestSplitAllocsIndependentOfThresholds(t *testing.T) {
	allocs := func(n int) float64 {
		ts, idx := splitBenchNode(t, n)
		rng := rand.New(rand.NewSource(1))
		return testing.AllocsPerRun(20, func() { BestSplit(ts, idx, 2, TreeParams{}, rng) })
	}
	if small, large := allocs(100), allocs(800); small != large || large > 8 {
		t.Fatalf("allocs per call: %v at n=100, %v at n=800; want equal and at most 8", small, large)
	}
}

func BenchmarkBestSplit800x115(b *testing.B) {
	ts, idx := splitBenchNode(b, 800)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sp := BestSplit(ts, idx, 2, TreeParams{}, rng); !sp.Found {
			b.Fatal("no split")
		}
	}
}

// BenchmarkBuildTree800x115 is the body of rf_subtree on a fold's whole
// bootstrap sample: one tree, default parameters.
func BenchmarkBuildTree800x115(b *testing.B) {
	ts, idx := splitBenchNode(b, 800)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree := BuildTree(ts, idx, 2, TreeParams{}, rng); tree.Leaf {
			b.Fatal("no split")
		}
	}
}

// BenchmarkNewTrainSet800x115 is the rank build every fold pays once, at
// the head of all its trees.
func BenchmarkNewTrainSet800x115(b *testing.B) {
	ts, _ := splitBenchNode(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTrainSet(ts.X, ts.Y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := blobs(rng, 400, 8, 2)
	for i := 0; i < b.N; i++ {
		rt := newRT()
		xa := dsarray.FromMatrix(rt.Main(), x, 100, 8)
		ya := dsarray.FromLabels(rt.Main(), y, 100)
		f := &RandomForest{Params: Params{NEstimators: 10, Seed: 13}}
		if err := f.Fit(xa, ya); err != nil {
			b.Fatal(err)
		}
		if err := rt.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
}
