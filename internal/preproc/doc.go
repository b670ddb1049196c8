// Package preproc implements the dislib preprocessing estimators the paper
// uses: StandardScaler (the extra step of the KNN experiment, §IV-B) and
// PCA via the covariance method (§III-B.4), both as task workflows over
// ds-arrays with parallelism per row block.
//
// # Public surface
//
// StandardScaler and PCA follow the estimator shape (Fit over a
// dsarray.Array, then Transform).
//
// # Concurrency and ownership
//
// Fit and Transform submit tasks on the array's compss context and
// synchronise internally where the algorithm demands it (the eigh step of
// PCA, like the paper's implementation, runs on the master). The block task
// bodies are registered with internal/exec and argument-pure, so fitting is
// bit-identical in-process and on remote workers. A fitted estimator is
// immutable and safe for concurrent Transform calls.
package preproc
