//go:build !race

#include "textflag.h"

// The AVX kernels behind Dot, Axpy and MulABtAdd's panel. Each computes the
// bits of the Go loop it replaces in kernels.go: four lanes stand for the
// loop's four accumulators (never eight), every product is rounded before
// its sum (VMULPD then VADDPD, never FMA) and the tail and the final
// (s0+s1)+(s2+s3) run in lane order. Every function ends in VZEROUPPER.

// func dotAVX(a, b []float64) float64
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   dottail

dotloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1 // a·b
	VADDPD  Y1, Y0, Y0         // s += a·b
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     dotloop

dottail:
	VEXTRACTF128 $1, Y0, X2 // (s2, s3) before scalar ops clear the upper half
	CMPQ         AX, CX
	JGE          dotsum

dottailloop:
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VADDSD X1, X0, X0         // s0 += a·b; s1 stays in lane 1
	INCQ   AX
	CMPQ   AX, CX
	JLT    dottailloop

dotsum:
	VUNPCKHPD X0, X0, X1
	VADDSD    X1, X0, X0 // s0 + s1
	VUNPCKHPD X2, X2, X3
	VADDSD    X3, X2, X2 // s2 + s3
	VADDSD    X2, X0, X0
	VMOVSD    X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyAVX(alpha float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD alpha+0(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           axpytail

axpyloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1         // x·alpha
	VADDPD  (DI)(AX*8), Y1, Y1 // x·alpha + y
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     axpyloop

axpytail:
	CMPQ AX, CX
	JGE  axpydone

axpytailloop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    axpytailloop

axpydone:
	VZEROUPPER
	RET

// func dot4AVX(a, b []float64, d *[4]float64)
//
// d[q] = Dot(a, b[q·n:(q+1)·n]) for q = 0..3 with n = len(a): one pass over
// a against four consecutive rows of b, one accumulator each, sharing the
// load of a.
TEXT ·dot4AVX(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	LEAQ   (DI)(CX*8), R8
	LEAQ   (R8)(CX*8), R9
	LEAQ   (R9)(CX*8), R10
	MOVQ   d+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-4, BX
	JZ     dot4tail

dot4loop:
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  (DI)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R8)(AX*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R9)(AX*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R10)(AX*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     dot4loop

dot4tail:
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VEXTRACTF128 $1, Y2, X10
	VEXTRACTF128 $1, Y3, X11
	CMPQ         AX, CX
	JGE          dot4sum

dot4tailloop:
	VMOVSD (SI)(AX*8), X4
	VMULSD (DI)(AX*8), X4, X5
	VADDSD X5, X0, X0
	VMULSD (R8)(AX*8), X4, X6
	VADDSD X6, X1, X1
	VMULSD (R9)(AX*8), X4, X7
	VADDSD X7, X2, X2
	VMULSD (R10)(AX*8), X4, X5
	VADDSD X5, X3, X3
	INCQ   AX
	CMPQ   AX, CX
	JLT    dot4tailloop

dot4sum:
	VUNPCKHPD X0, X0, X4
	VADDSD    X4, X0, X0
	VUNPCKHPD X8, X8, X4
	VADDSD    X4, X8, X8
	VADDSD    X8, X0, X0
	VMOVSD    X0, 0(DX)
	VUNPCKHPD X1, X1, X4
	VADDSD    X4, X1, X1
	VUNPCKHPD X9, X9, X4
	VADDSD    X4, X9, X9
	VADDSD    X9, X1, X1
	VMOVSD    X1, 8(DX)
	VUNPCKHPD X2, X2, X4
	VADDSD    X4, X2, X2
	VUNPCKHPD X10, X10, X4
	VADDSD    X4, X10, X10
	VADDSD    X10, X2, X2
	VMOVSD    X2, 16(DX)
	VUNPCKHPD X3, X3, X4
	VADDSD    X4, X3, X3
	VUNPCKHPD X11, X11, X4
	VADDSD    X4, X11, X11
	VADDSD    X11, X3, X3
	VMOVSD    X3, 24(DX)
	VZEROUPPER
	RET

// func cpuAVX() bool
//
// CPUID leaf 1 must report AVX (ECX bit 28) and OSXSAVE (bit 27), and
// XGETBV must show the OS saving both XMM and YMM state (XCR0 bits 1, 2).
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   nocpuavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   nocpuavx
	MOVB  $1, ret+0(FP)

nocpuavx:
	RET
