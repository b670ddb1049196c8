// Package mat provides the dense linear-algebra kernels the rest of the
// library is built on: a row-major dense matrix type, GEMM, transposed
// products, and a symmetric eigendecomposition (the replacement for
// numpy.linalg.eigh used by the PCA covariance method in the paper).
//
// The hot products (Mul, MulAtB, MulAtA, MulABt) are cache-blocked
// and row-band parallel through internal/par; they and EigSym (Householder
// tridiagonalisation, then tridiagonal QL whose recorded rotations are
// applied in one parallel region) share the unrolled Dot/Axpy
// micro-kernels in kernels.go, which have an AVX path on amd64 (below). A region's helpers borrow the slots the task
// runtime leaves idle (see the par package comment), so inside a task body
// with every slot busy a kernel runs serially on its caller — how dislib
// runs serial NumPy kernels inside PyCOMPSs tasks — and a lone body, like
// PCA's eigh, gets the idle ones. Every kernel has the same bits however
// its region is split.
//
// # The lane contract
//
// The bits of Dot and Axpy are the Go loops' in kernels.go. Dot keeps four
// accumulators s0..s3 over the elements i ≡ 0..3 (mod 4), adds the tail
// into s0 and returns (s0+s1)+(s2+s3); Axpy adds alpha·x[i] to y[i] element
// by element; every product is rounded before it meets a sum. On amd64
// with AVX, chosen once at init from CPUID and XGETBV, the assembly in
// vec_amd64.s keeps those four accumulators in the four lanes of one
// 256-bit register — exactly four, never AVX-512's eight, which would
// reorder Dot's sum — and rounds each product by a VMULPD before its
// VADDPD, never an FMA. MulABtAdd's panel runs one row of a against four
// rows of b with four such registers. Every result that is not NaN has the
// Go loops' bits (±0, ±Inf and subnormals included), and every NaN stays a
// NaN; which payload survives an operation on two NaNs is not fixed by the
// Go source either, since the compiler orders the operands of + and × per
// register. Vectors under 8 elements, other architectures, CPUs without
// AVX and -race builds (the detector cannot see inside assembly) run the Go
// loops, which are also the tests' oracle. No architecture may fuse: a
// product that meets a sum is rounded by an explicit float64(…)
// conversion, so arm64 computes amd64's bits (scripts/check.sh fails on a
// fused instruction in the arm64 listing of mat, sigproc, forest and
// preproc).
//
// # Public surface
//
// Dense is the matrix type — all fields exported (Rows, Cols, Data), so
// other packages build and read one without adapters; the exec wire
// encodes it under a built-in tag.
// Constructors (New, VStack, HStack), element ops (Add, Sub, Scale and
// their InPlace forms), products (Mul, MulAdd, MulAtB, MulAtA, MulABt and
// MulABtInto, which overwrites a pooled destination) and EigSym cover what
// the estimators need.
//
// # Concurrency and ownership
//
// A Dense has no hidden state: whoever holds the only reference may mutate
// it; once shared (published as a task result, passed as a task argument)
// it must be treated as immutable. Kernels never alias their output with an
// input unless the name says so (the *InPlace forms). Concurrent reads are
// always safe; concurrent writes are the caller's problem.
package mat
