// Package dsarray implements the distributed array at the heart of dislib
// (the "ds-array" of the paper's §II-B): a 2-D dataset partitioned into
// blocks, where every block is a future produced by a task on the
// internal/compss runtime. Estimators build their training workflows out of
// per-block tasks, so the runtime discovers the parallelism automatically —
// exactly the dislib/PyCOMPSs division of labour the paper describes.
//
// # Public surface
//
// Array is the block-partitioned matrix (FromMatrix / FromBlocks construct
// it; RowBlock, Map, ColSums, Gram, SubRowVec, MulDense and friends submit
// its per-block task workflows). Reduce / ReduceTree
// are the merge combinators every estimator shares; LabelsToInts is the
// label codec used across the classifiers.
//
// # Concurrency and ownership
//
// Blocks are futures: once published by their producing task they are
// immutable and may feed any number of downstream tasks, including on
// out-of-process workers (block task bodies are registered with
// internal/exec and must stay argument-pure): no task writes to a block,
// merges included. Array itself is safe for concurrent reads after
// construction.
package dsarray
