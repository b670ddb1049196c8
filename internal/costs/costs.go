package costs

// RefFlops is the sustained double-precision throughput assumed for one
// reference core running the library's (unblocked, pure-Go-equivalent)
// dense kernels. Deliberately far below peak: the paper's Python stack runs
// NumPy kernels mixed with interpreter overhead.
const RefFlops = 2e9

// MasterIOBps is the effective throughput of moving data through the
// master process: PyCOMPSs-class runtimes serialize task data with pickle
// and stage it on disk, which is orders of magnitude slower than the
// interconnect. This constant prices the dataset-distribution stages whose
// weight the paper observes ("the solution does not achieve a 5x
// scalability due to the part of the workflow previous to the training of
// the folds which includes the partitioning and distribution of the
// dataset").
const MasterIOBps = 20e6

// Sec converts a floating-point operation count into reference-core seconds.
func Sec(flops float64) float64 { return flops / RefFlops }

// IO models a master-side data staging task (serialize + write) of the
// given payload.
func IO(bytes int64) float64 { return float64(bytes) / MasterIOBps }

// Bytes returns the serialized size of an r×c float64 matrix (the transfer
// unit of the scheduler's interconnect model).
func Bytes(r, c int) int64 { return int64(r) * int64(c) * 8 }

// Copy models a data-movement-only task (block load, split, concat):
// roughly one op per element.
func Copy(r, c int) float64 { return Sec(float64(r) * float64(c)) }

// Gemm models an m×k by k×n matrix product (2mkn flops).
func Gemm(m, k, n int) float64 { return Sec(2 * float64(m) * float64(k) * float64(n)) }

// Eigh models a symmetric n×n eigendecomposition on the paper's machines:
// 30n³ is the weight that gives Fig. 11 its flat PCA stage. It is a constant
// of the model, not a measurement of mat.EigSym (≈ 9n³).
func Eigh(n int) float64 { return Sec(30 * float64(n) * float64(n) * float64(n)) }

// SMOIterFactor is the empirical number of SMO iterations per training
// sample for the RBF problems in this repository.
const SMOIterFactor = 8

// SVCFit models SMO training on n samples with d features: approximately
// SMOIterFactor·n iterations, each touching a kernel row (n·d flops).
func SVCFit(n, d int) float64 {
	return Sec(SMOIterFactor * float64(n) * float64(n) * float64(d))
}

// SVCPredict models evaluating nsv support vectors against n samples.
func SVCPredict(nsv, n, d int) float64 {
	return Sec(2 * float64(nsv) * float64(n) * float64(d))
}

// Scaler models a StandardScaler pass (two reads, one write per element).
func Scaler(n, d int) float64 { return Sec(3 * float64(n) * float64(d)) }

// KNNFit models building a per-block neighbor structure (a copy in the
// brute-force implementation, matching scikit-learn's "brute" backend).
func KNNFit(n, d int) float64 { return Copy(n, d) }

// KNNQuery models brute-force distance computation between nTrain stored
// samples and nQuery queries in d dimensions (3 flops per term: diff,
// square, accumulate).
func KNNQuery(nTrain, nQuery, d int) float64 {
	return Sec(3 * float64(nTrain) * float64(nQuery) * float64(d))
}

// TreeFit models growing one CART tree on n samples, d features, to the
// given depth: each level re-scans the samples over the sampled features.
func TreeFit(n, d, depth int) float64 {
	return Sec(6 * float64(n) * float64(d) * float64(depth))
}

// TreePredict models classifying n samples down a depth-deep tree.
func TreePredict(n, depth int) float64 { return Sec(4 * float64(n) * float64(depth)) }

// NNForwardBackward models one optimisation pass (forward + backward ≈ 3×
// forward) over n samples with fwd flops per sample.
func NNForwardBackward(n int, fwdFlopsPerSample float64) float64 {
	return Sec(3 * float64(n) * fwdFlopsPerSample)
}

// STFT models a spectrogram: one FFT of size w per hop, n/hop windows,
// 5·w·log2(w) flops per FFT.
func STFT(n, w, hop int) float64 {
	if hop <= 0 || w <= 0 || n <= 0 {
		return 0
	}
	windows := float64(n / hop)
	logw := 0.0
	for s := 1; s < w; s <<= 1 {
		logw++
	}
	return Sec(windows * 5 * float64(w) * logw)
}
