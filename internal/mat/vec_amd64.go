//go:build !race

package mat

// haveAVX reports whether this CPU and its OS run 256-bit AVX; Dot, Axpy
// and MulABtAdd's panel take the assembly in vec_amd64.s when it is set.
// Nothing here needs AVX2 or FMA.
var haveAVX = cpuAVX()

func cpuAVX() bool

//go:noescape
func dotAVX(a, b []float64) float64

//go:noescape
func axpyAVX(alpha float64, x, y []float64)

//go:noescape
func dot4AVX(a, b []float64, d *[4]float64)
