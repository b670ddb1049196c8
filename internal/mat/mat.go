package mat

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"taskml/internal/par"
)

// Dense is a row-major dense matrix of float64.
//
// The zero value is an empty (0×0) matrix. Data is stored contiguously:
// element (i, j) lives at Data[i*Cols+j].
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFromData wraps data (not copied) as an r×c matrix.
// It panics if len(data) != r*c.
func NewFromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// NewFromRows builds a matrix by copying the given rows. All rows must have
// equal length. An empty input yields a 0×0 matrix.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Slice returns a copy of the sub-matrix with rows [r0, r1) and columns
// [c0, c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d, %d:%d] out of bounds for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Add stores a+b into a new matrix. Shapes must match.
func Add(a, b *Dense) *Dense {
	checkSameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub stores a-b into a new matrix. Shapes must match.
func Sub(a, b *Dense) *Dense {
	checkSameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a. Shapes must match.
func AddInPlace(a, b *Dense) {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale returns s*a as a new matrix.
func Scale(s float64, a *Dense) *Dense {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = s * v
	}
	return out
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Dense, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

func checkSameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul computes the matrix product a·b with the cache-blocked,
// row-band-parallel GEMM kernel (see MulAdd in kernels.go).
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MulAdd(out, a, b)
	return out
}

// MulAtB computes aᵀ·b without materialising the transpose. This is the
// kernel behind the PCA covariance step (xᵀx) of the paper's §III-B.4.
func MulAtB(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulAtB shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	MulAtBAdd(out, a, b)
	return out
}

// MulABt computes a·bᵀ. Used for pairwise dot products between row-sample
// blocks (KNN distance computation, RBF kernels).
func MulABt(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABt shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	MulABtAdd(out, a, b)
	return out
}

// ColMeans returns the per-column mean of m. A 0-row matrix yields zeros.
func ColMeans(m *Dense) []float64 {
	means := make([]float64, m.Cols)
	if m.Rows == 0 {
		return means
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// ColSums returns the per-column sum of m.
func ColSums(m *Dense) []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// SubRowVec subtracts vector v from every row of m, in place.
func SubRowVec(m *Dense, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: SubRowVec length %d vs %d cols", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= v[j]
		}
	}
}

// VStack concatenates matrices vertically. All inputs must share a column
// count; nil or empty inputs are skipped.
func VStack(ms ...*Dense) *Dense {
	rows, cols := 0, -1
	for _, m := range ms {
		if m == nil || m.Rows == 0 {
			continue
		}
		if cols == -1 {
			cols = m.Cols
		} else if m.Cols != cols {
			panic(fmt.Sprintf("mat: VStack column mismatch %d vs %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	if cols == -1 {
		return New(0, 0)
	}
	out := New(rows, cols)
	at := 0
	for _, m := range ms {
		if m == nil || m.Rows == 0 {
			continue
		}
		copy(out.Data[at*cols:], m.Data)
		at += m.Rows
	}
	return out
}

// HStack concatenates matrices horizontally. All inputs must share a row
// count.
func HStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("mat: HStack row mismatch %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		at := 0
		for _, m := range ms {
			copy(out.Row(i)[at:at+m.Cols], m.Row(i))
			at += m.Cols
		}
	}
	return out
}

// TakeRows returns a new matrix with the rows of m selected by idx, in order.
func TakeRows(m *Dense, idx []int) *Dense {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Norm2 returns the Euclidean (Frobenius) norm of the matrix elements,
// through the shared unrolled dot micro-kernel.
func Norm2(m *Dense) float64 {
	return math.Sqrt(Dot(m.Data, m.Data))
}

// ErrNotConverged is returned by iterative solvers that exhaust their
// iteration budget before reaching the requested tolerance.
var ErrNotConverged = errors.New("mat: iteration did not converge")

// EigSym computes the eigendecomposition of the symmetric matrix a by
// Householder tridiagonalisation and implicit-shift QL with accumulated
// transforms (EISPACK tred2/tql2). It returns eigenvalues in descending
// order and the matching unit eigenvectors as the *columns* of the returned
// matrix, the same convention as numpy.linalg.eigh after a descending sort
// (which is what dislib's PCA does with the covariance matrix). The sign of
// each eigenvector is canonical: its largest-magnitude component (the first
// on ties) is positive, so the result does not depend on the solver.
//
// a is not modified. Symmetry is assumed; only the upper triangle is read.
// EigSym returns ErrNotConverged if an eigenvalue exceeds its QL iteration
// budget, with the best available approximation still returned.
func EigSym(a *Dense) (vals []float64, vecs *Dense, err error) {
	n := a.Rows
	if n != a.Cols {
		panic(fmt.Sprintf("mat: EigSym on non-square %dx%d", n, a.Cols))
	}
	// The solver works on the transpose of the textbook layout: row i of w
	// ends up holding eigenvector i, so every inner loop below walks a row.
	// QL only records its rotations; rotate then applies them to the
	// transpose of w, whose row k is component k of every eigenvector.
	w := Scratch.Get(n * n)
	copy(w, a.Data)
	d, e := make([]float64, n), make([]float64, n)
	if n > 0 {
		tridiagonalize(w, d, e, n)
		rot := Scratch.Get(2 * n * n)[:0]
		rot, err = tridiagQL(d, e, n, rot)
		rotate(w, n, rot)
		Scratch.Put(rot)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(d[j], d[i]) })
	vals, vecs = make([]float64, n), New(n, n)
	for col, src := range order {
		vals[col] = d[src]
		sign, big := 1.0, 0.0
		for r := 0; r < n; r++ {
			if x := w[r*n+src]; math.Abs(x) > big {
				big = math.Abs(x)
				sign = math.Copysign(1, x)
			}
		}
		for r := 0; r < n; r++ {
			vecs.Data[r*n+col] = sign * w[r*n+src]
		}
	}
	Scratch.Put(w)
	return vals, vecs, err
}

// tridiagonalize reduces the symmetric matrix in the upper triangle of the
// row-major n×n buffer w to tridiagonal form (diagonal d, subdiagonal e[1:])
// and leaves the transposed accumulated transform in w: tred2 with rows and
// columns exchanged.
func tridiagonalize(w, d, e []float64, n int) {
	last := n - 1
	for j := 0; j < n; j++ {
		d[j] = w[j*n+last]
	}
	for i := last; i > 0; i-- {
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		e[i] = 0
		if scale != 0 { // else row i is already reduced: the transform is the identity
			// Householder vector of row i, scaled against under/overflow.
			for k := range d[:i] {
				d[k] /= scale
				h += float64(d[k] * d[k])
			}
			f, g := d[i-1], math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= float64(f * g)
			d[i-1] = f - g
			// Similarity transform of the leading i×i block: e = A·d from
			// the upper triangle, then the rank-two update.
			clear(e[:i])
			for j := 0; j < i; j++ {
				row := w[j*n : j*n+i]
				w[i*n+j] = d[j]
				e[j] += Dot(row[j:], d[j:i])
				Axpy(d[j], row[j+1:], e[j+1:i])
			}
			for j := range e[:i] {
				e[j] /= h
			}
			Axpy(-Dot(e[:i], d[:i])/(h+h), d[:i], e[:i])
			for j := 0; j < i; j++ {
				f, g, row := d[j], e[j], w[j*n:j*n+i]
				for k := j; k < i; k++ {
					row[k] -= float64(f*e[k]) + float64(g*d[k])
				}
			}
		}
		for j := 0; j < i; j++ {
			d[j] = w[j*n+i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transforms.
	for i := 0; i < last; i++ {
		w[i*n+last] = w[i*n+i]
		w[i*n+i] = 1
		hv := w[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, x := range hv {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				row := w[j*n : j*n+i+1]
				Axpy(-Dot(hv, row), d[:i+1], row)
			}
		}
		clear(hv)
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+last]
		w[j*n+last] = 0
	}
	w[last*n+last] = 1
	e[0] = 0
}

// tridiagQL diagonalises the tridiagonal matrix (d, e) by implicit-shift QL
// (tql2). The d/e recurrence never reads the eigenvectors, so instead of
// applying each rotation to the rows of the transform it appends it to rot
// — per sweep the pair (m, l), then (c, s) of each rotation i = m−1 … l —
// and returns the list for rotate. On return d holds the eigenvalues,
// unsorted.
func tridiagQL(d, e []float64, n int, rot []float64) ([]float64, error) {
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == 30 { // EISPACK's budget per eigenvalue
				for i := l; i < n; i++ {
					d[i] += f // undo the shifts on what is left
				}
				return rot, ErrNotConverged
			}
			g := d[l] // the implicit shift
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			dl1 := e[l] * (p + r)
			d[l], d[l+1] = e[l]/(p+r), dl1
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// QL sweep from m down to l.
			rot = grow(rot, 2*(m-l+1))
			rot = append(rot, float64(m), float64(l))
			p = d[m]
			el1, c, c2, c3, s, s2 := e[l+1], 1.0, 1.0, 1.0, 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = float64(c * p)
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = float64(c*d[i]) - float64(s*g)
				d[i+1] = h + float64(s*(float64(c*g)+float64(s*d[i])))
				rot = append(rot, c, s)
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return rot, nil
}

// grow makes room for k more elements of a Scratch slice, trading it for
// one twice as large when it is full.
func grow(s []float64, k int) []float64 {
	if len(s)+k <= cap(s) {
		return s
	}
	t := Scratch.Get(max(2*cap(s), len(s)+k))[:len(s)]
	copy(t, s)
	Scratch.Put(s)
	return t
}

// rotate applies the rotations tridiagQL recorded to the n×n transform w:
// it transposes w in place, so that row k holds component k of every
// eigenvector, and runs the whole rotation list over each row, four rows a
// pass over the list, with rows split between the region's helpers. Each
// component sees the same operations in the same order as when QL rotated
// the rows of w in place, so the result has the same bits; a component's
// rotations touch one contiguous row, so helpers never share a cache line
// but at the ends of their bands.
func rotate(w []float64, n int, rot []float64) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w[i*n+j], w[j*n+i] = w[j*n+i], w[i*n+j]
		}
	}
	// A group of four rows costs ≈ 4·3·len(rot) flops: a chunk is a group.
	par.For((n+3)/4, 1, func(g0, g1 int) {
		k := 4 * g0
		for ; k+4 <= min(4*g1, n); k += 4 {
			rotate4(w[k*n:(k+1)*n], w[(k+1)*n:(k+2)*n], w[(k+2)*n:(k+3)*n], w[(k+3)*n:(k+4)*n], rot)
		}
		for ; k < min(4*g1, n); k++ {
			rotate1(w[k*n:(k+1)*n], rot)
		}
	})
}

// rotate1 runs the rotation list over one component row v: per sweep (m, l),
// rotation i mixes v[i] and v[i+1], carrying the new v[i] into the next.
func rotate1(v, rot []float64) {
	for j := 0; j < len(rot); {
		m, l := int(rot[j]), int(rot[j+1])
		j += 2
		y := v[m]
		for i := m - 1; i >= l; i-- {
			c, s := rot[j], rot[j+1]
			j += 2
			x := v[i]
			v[i+1] = float64(s*x) + float64(c*y)
			y = float64(c*x) - float64(s*y)
		}
		v[l] = y
	}
}

// rotate4 is rotate1 over four rows at once: one pass over the list.
func rotate4(v0, v1, v2, v3, rot []float64) {
	for j := 0; j < len(rot); {
		m, l := int(rot[j]), int(rot[j+1])
		j += 2
		y0, y1, y2, y3 := v0[m], v1[m], v2[m], v3[m]
		for i := m - 1; i >= l; i-- {
			c, s := rot[j], rot[j+1]
			j += 2
			x0, x1, x2, x3 := v0[i], v1[i], v2[i], v3[i]
			v0[i+1] = float64(s*x0) + float64(c*y0)
			v1[i+1] = float64(s*x1) + float64(c*y1)
			v2[i+1] = float64(s*x2) + float64(c*y2)
			v3[i+1] = float64(s*x3) + float64(c*y3)
			y0 = float64(c*x0) - float64(s*y0)
			y1 = float64(c*x1) - float64(s*y1)
			y2 = float64(c*x2) - float64(s*y2)
			y3 = float64(c*x3) - float64(s*y3)
		}
		v0[l], v1[l], v2[l], v3[l] = y0, y1, y2, y3
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with v on the diagonal.
func Diag(v []float64) *Dense {
	m := New(len(v), len(v))
	for i, x := range v {
		m.Set(i, i, x)
	}
	return m
}

// String renders small matrices for debugging; large matrices are
// abbreviated to their shape.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
