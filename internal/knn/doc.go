// Package knn implements the k-nearest-neighbors estimator of the paper's
// §III-C.2 on top of ds-arrays: "The fit function uses the NearestNeighbors
// algorithm in dislib that has parallelism based on the number of row
// blocks ... The predict also makes a task per block in the row axis of the
// dataset."
//
// # Public surface
//
// KNN (Fit/Predict/Score, configured by Params, with uniform or distance
// Weighting) is the estimator: fit, per-block predict and the k-way merge
// of the blocks' neighbours, the three stages of dislib's KNN. The
// unexported queryBlock is the per-block brute-force k-NN kernel the
// predict tasks run.
//
// # Concurrency and ownership
//
// Fit submits per-block tasks on the caller's compss context; a fitted KNN
// holds immutable references to the training blocks and is safe for
// concurrent Predict calls. queryBlock is a pure function over its inputs
// and parallelises internally on the bounded internal/par pool.
package knn
