// Package mat provides the dense linear-algebra kernels the rest of the
// library is built on: a row-major dense matrix type, GEMM, transposed
// products, and a symmetric eigendecomposition (the replacement for
// numpy.linalg.eigh used by the PCA covariance method in the paper).
//
// The hot products (Mul, MulAtB, MulABt, MulVec) are cache-blocked and
// row-band parallel on the bounded internal/par pool; they and the serial
// EigSym (tridiagonal QL) share the unrolled Dot/Axpy micro-kernels in
// kernels.go. Kernel parallelism composes with the task-level parallelism
// of internal/compss through par.SetLimit — see the par package comment for
// the oversubscription contract. At par.SetLimit(1) every kernel runs
// serially on its caller, mirroring how dislib runs serial NumPy kernels
// inside PyCOMPSs tasks.
//
// # Public surface
//
// Dense is the matrix type — all fields exported (Rows, Cols, Data) so
// values gob-serialize for the out-of-process backend without adapters.
// Constructors (New, VStack, HStack), element ops (Add, Sub, Scale and
// their InPlace forms), products (Mul, MulAdd, MulAtB, MulABt, MulVec) and
// EigSym cover what the estimators need.
//
// # Concurrency and ownership
//
// A Dense has no hidden state: whoever holds the only reference may mutate
// it; once shared (published as a task result, passed as a task argument)
// it must be treated as immutable. Kernels never alias their output with an
// input unless the name says so (the *InPlace forms). Concurrent reads are
// always safe; concurrent writes are the caller's problem.
package mat
