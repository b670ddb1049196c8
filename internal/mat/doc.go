// Package mat provides the dense linear-algebra kernels the rest of the
// library is built on: a row-major dense matrix type, GEMM, transposed
// products, and a symmetric eigendecomposition (the replacement for
// numpy.linalg.eigh used by the PCA covariance method in the paper).
//
// The hot products (Mul, MulAtB, MulAtA, MulABt, MulVec) are cache-blocked
// and row-band parallel through internal/par; they and EigSym (Householder
// tridiagonalisation, then tridiagonal QL whose recorded rotations are
// applied in one parallel region) share the unrolled Dot/Axpy
// micro-kernels in kernels.go. A region's helpers borrow the slots the task
// runtime leaves idle (see the par package comment), so inside a task body
// with every slot busy a kernel runs serially on its caller — how dislib
// runs serial NumPy kernels inside PyCOMPSs tasks — and a lone body, like
// PCA's eigh, gets the idle ones. Every kernel has the same bits however
// its region is split.
//
// # Public surface
//
// Dense is the matrix type — all fields exported (Rows, Cols, Data) so
// values gob-serialize for the out-of-process backend without adapters.
// Constructors (New, VStack, HStack), element ops (Add, Sub, Scale and
// their InPlace forms), products (Mul, MulAdd, MulAtB, MulAtA, MulABt,
// MulVec) and EigSym cover what the estimators need.
//
// # Concurrency and ownership
//
// A Dense has no hidden state: whoever holds the only reference may mutate
// it; once shared (published as a task result, passed as a task argument)
// it must be treated as immutable. Kernels never alias their output with an
// input unless the name says so (the *InPlace forms). Concurrent reads are
// always safe; concurrent writes are the caller's problem.
package mat
