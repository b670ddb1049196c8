// Package forest implements the RandomForest estimator of the paper's
// §III-C.3: an ensemble of CART decision trees whose final prediction
// averages the per-tree class probability distributions (Figure 7), with
// the dislib parallelisation scheme — "its parallelism is based on the
// number of estimators and the parameter distr_depth (limit of the depth of
// the tree where the decisions are no longer computed in parallel)".
//
// # Public surface
//
// RandomForest (Fit/Predict over ds-arrays, configured by Params) is the
// estimator; TreeParams/Node/Split/BuildTree/BestSplit expose the
// single-tree CART machinery it distributes. TrainSet and SplitOut are the
// wire-visible intermediate values of the distributed fit. NewTrainSet ranks
// each column once a fold; BestSplit, the loop a fit spends its time in, then
// never sorts: it walks a node's (rank, class) histogram in rank order,
// counting classes in exact integers, and partitions rows by rank. A tree's
// bootstrap repeats are folded into per-row weights once, so a node is its
// distinct rows while sizes and leaf distributions count samples.
//
// # Concurrency and ownership
//
// Fit and Predict submit tasks on the caller's compss context; the task
// bodies are registered with internal/exec and argument-pure, so the
// forest trains identically in-process and on remote workers. A fitted
// RandomForest (and any Node tree) is immutable and safe for concurrent
// Predict calls. Randomness is explicit: every task derives its rand.Rand
// from a seed argument, never from shared state. Its source is
// internal/randsrc's: math/rand's stream for that seed, seeded by jump-ahead.
package forest
