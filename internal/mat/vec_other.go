//go:build !amd64 || race

package mat

// haveAVX is false where the kernels are the Go loops alone: on other
// architectures, and under -race, whose detector cannot see the memory an
// assembly kernel touches.
const haveAVX = false

func dotAVX(a, b []float64) float64 { panic("mat: no vector kernels in this build") }

func axpyAVX(alpha float64, x, y []float64) { panic("mat: no vector kernels in this build") }

func dot4AVX(a, b []float64, d *[4]float64) { panic("mat: no vector kernels in this build") }
