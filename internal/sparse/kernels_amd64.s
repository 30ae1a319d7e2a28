//go:build amd64 && !noasm

#include "textflag.h"

// AVX2/FMA SpMV kernels. Shared conventions:
//
//   - Column indices are int32, sign-extended to qword lanes with VPMOVSXDQ
//     so VGATHERQPD can scale them by 8.
//   - The padded layout (SELL) marks absent entries with column -1. The
//     gather mask is built as (col > -1) via VPCMPGTQ against all-ones, so
//     padded lanes are never dereferenced; their data is 0.0, making the
//     FMA contribution exactly zero.
//   - VGATHERQPD consumes (clobbers) its mask register and leaves unmasked
//     destination lanes untouched, so the destination is zeroed first.
//   - Every kernel ends with VZEROUPPER before RET to avoid AVX/SSE
//     transition stalls in the Go code that follows.
//   - Reduction order is fixed — (l0+l2)+(l1+l3) then the scalar tail — so
//     results are deterministic for a given kernel variant (they differ
//     from the pure-Go loops by rounding only; tests compare through the
//     Higham error bound, not bitwise).

// func gatherDotAsm(col *int32, data *float64, x *float64, n int) float64
TEXT ·gatherDotAsm(SB), NOSPLIT, $0-40
	MOVQ col+0(FP), CX
	MOVQ data+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), BX

	VXORPD Y0, Y0, Y0      // acc
	XORQ   AX, AX          // k
	MOVQ   BX, DI
	SUBQ   $3, DI          // n-3: last k with a full 4-lane chunk

vec4:
	CMPQ AX, DI
	JGE  hsum
	VMOVDQU    (CX)(AX*4), X1        // 4 x int32 cols
	VPMOVSXDQ  X1, Y1                // -> 4 x int64
	VPCMPEQD   Y2, Y2, Y2            // all-ones mask: gather all 4 lanes
	VXORPD     Y3, Y3, Y3
	VGATHERQPD Y2, (SI)(Y1*8), Y3    // x[col[k..k+3]]
	VFMADD231PD (DX)(AX*8), Y3, Y0   // acc += data * gathered
	PREFETCHT0 384(DX)(AX*8)
	PREFETCHT0 192(CX)(AX*4)
	ADDQ $4, AX
	JMP  vec4

hsum:
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0          // [l0+l2, l1+l3]
	VHADDPD      X0, X0, X0          // (l0+l2)+(l1+l3)

tail:
	CMPQ AX, BX
	JGE  done
	MOVLQSX (CX)(AX*4), R8
	VMOVSD  (SI)(R8*8), X5
	VFMADD231SD (DX)(AX*8), X5, X0
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	MOVSD X0, ret+32(FP)
	RET

// func sellSliceAsm(cols *int32, data *float64, x *float64, sums *float64, width int)
//
// Slice height is fixed at 8 (SELLC): lanes 0-3 accumulate in Y0, lanes 4-7
// in Y1. Layout is lane-major, so column j of the slice is 8 consecutive
// entries.
TEXT ·sellSliceAsm(SB), NOSPLIT, $0-40
	MOVQ cols+0(FP), CX
	MOVQ data+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ sums+24(FP), DI
	MOVQ width+32(FP), R10

	VXORPD Y0, Y0, Y0      // acc lanes 0-3
	VXORPD Y1, Y1, Y1      // acc lanes 4-7
	XORQ   BX, BX          // j

jloop:
	CMPQ BX, R10
	JGE  store
	MOVQ BX, R8
	SHLQ $3, R8                      // element base = j*8
	VMOVDQU     (CX)(R8*4), Y2       // 8 x int32 cols
	VPMOVSXDQ   X2, Y3               // lanes 0-3
	VEXTRACTI128 $1, Y2, X4
	VPMOVSXDQ   X4, Y5               // lanes 4-7
	VPCMPEQD   Y6, Y6, Y6
	VPCMPGTQ   Y6, Y3, Y7
	VXORPD     Y8, Y8, Y8
	VGATHERQPD Y7, (SI)(Y3*8), Y8
	VFMADD231PD (DX)(R8*8), Y8, Y0
	VPCMPEQD   Y6, Y6, Y6
	VPCMPGTQ   Y6, Y5, Y7
	VXORPD     Y9, Y9, Y9
	VGATHERQPD Y7, (SI)(Y5*8), Y9
	VFMADD231PD 32(DX)(R8*8), Y9, Y1
	PREFETCHT0 512(DX)(R8*8)
	PREFETCHT0 256(CX)(R8*4)
	INCQ BX
	JMP  jloop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func diaAccumAsm(d *float64, x *float64, y *float64, n int)
//
// y[i] += d[i] * x[i] for i in [0, n): one DIA diagonal's segment of a row
// tile. All three streams are contiguous, so there is no gather and no mask;
// 8 lanes a step in two independent YMM chains, then a scalar tail. Every
// element, vector lane or tail, is one FMA of its own row, so the result does
// not depend on where a segment starts or how long it is.
TEXT ·diaAccumAsm(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), BX

	XORQ AX, AX            // i
	MOVQ BX, R9
	SUBQ $7, R9            // n-7: last i with a full 8-lane step

vec8:
	CMPQ AX, R9
	JGE  tail
	VMOVUPD     (DI)(AX*8), Y0
	VMOVUPD     32(DI)(AX*8), Y1
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     32(SI)(AX*8), Y3
	VFMADD231PD (DX)(AX*8), Y2, Y0
	VFMADD231PD 32(DX)(AX*8), Y3, Y1
	VMOVUPD     Y0, (DI)(AX*8)
	VMOVUPD     Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  vec8

tail:
	CMPQ AX, BX
	JGE  done
	VMOVSD      (DI)(AX*8), X0
	VMOVSD      (SI)(AX*8), X2
	VFMADD231SD (DX)(AX*8), X2, X0
	VMOVSD      X0, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// The blocked row-panel kernel: Y[i][c] = sum_p data[p] * X[col[p]][c] over
// row i's nonzeros, X and Y row-major with k columns. A nonzero's x access
// is one contiguous load at X + col*k*8 — no gather — so the kernel costs
// one broadcast and one FMA per nonzero per 4 columns.
//
// Summation order, the same for every lane of every column block and for
// the scalar tail: nonzero n of the row (n = 0, 1, ...) is FMA'd into
// accumulator n mod 4, and the row ends with (a0+a1)+(a2+a3). The order
// depends on the row alone, so a column's result does not change with k,
// with its position in the panel, or with how rows are split among callers.
//
// Register use: R8 cursor into ptr, CX col, DX data, SI x, DI cursor into y
// (the panel is written front to back), R10 k*8, R12 rows left, AX/BX the
// row's [p, end), R13 x + 8*(first column of the block), R9 the nonzero
// index, R11 scratch.

// One nonzero at index R9+n into accumulator acc, for a 4-column block, the
// low and high halves of an 8-column block, and one scalar column.
#define NZ4(n, acc) \
	MOVLQSX (4*n)(CX)(R9*4), R11; \
	IMULQ   R10, R11; \
	VBROADCASTSD (8*n)(DX)(R9*8), Y8; \
	VFMADD231PD (R13)(R11*1), Y8, acc

#define NZ8(n, lo, hi) \
	MOVLQSX (4*n)(CX)(R9*4), R11; \
	IMULQ   R10, R11; \
	VBROADCASTSD (8*n)(DX)(R9*8), Y8; \
	VFMADD231PD (R13)(R11*1), Y8, lo; \
	VFMADD231PD 32(R13)(R11*1), Y8, hi

#define NZ1(n, acc) \
	MOVLQSX (4*n)(CX)(R9*4), R11; \
	IMULQ   R10, R11; \
	VMOVSD  (8*n)(DX)(R9*8), X8; \
	VFMADD231SD (R13)(R11*1), X8, acc

// func spmmRowsAsm(ptr *int, col *int32, data *float64, x *float64, y *float64, k, rows int)
TEXT ·spmmRowsAsm(SB), NOSPLIT, $0-56
	MOVQ ptr+0(FP), R8
	MOVQ col+8(FP), CX
	MOVQ data+16(FP), DX
	MOVQ x+24(FP), SI
	MOVQ y+32(FP), DI
	MOVQ k+40(FP), R10
	SHLQ $3, R10
	MOVQ rows+48(FP), R12

row:
	TESTQ R12, R12
	JLE   done
	MOVQ  (R8), AX
	MOVQ  8(R8), BX
	MOVQ  SI, R13

block:
	LEAQ (SI)(R10*1), R11
	SUBQ R13, R11          // bytes of panel row left of this block
	CMPQ R11, $64
	JGE  b8
	CMPQ R11, $32
	JGE  b4
	TESTQ R11, R11
	JG   b1
	ADDQ $8, R8
	DECQ R12
	JMP  row

b8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   AX, R9
b8loop:
	LEAQ 4(R9), R11
	CMPQ R11, BX
	JGT  b8tail
	NZ8(0, Y0, Y4)
	NZ8(1, Y1, Y5)
	NZ8(2, Y2, Y6)
	NZ8(3, Y3, Y7)
	ADDQ $4, R9
	JMP  b8loop
b8tail:
	CMPQ R9, BX
	JGE  b8sum
	NZ8(0, Y0, Y4)
	INCQ R9
	CMPQ R9, BX
	JGE  b8sum
	NZ8(0, Y1, Y5)
	INCQ R9
	CMPQ R9, BX
	JGE  b8sum
	NZ8(0, Y2, Y6)
b8sum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R13
	JMP  block

b4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   AX, R9
b4loop:
	LEAQ 4(R9), R11
	CMPQ R11, BX
	JGT  b4tail
	NZ4(0, Y0)
	NZ4(1, Y1)
	NZ4(2, Y2)
	NZ4(3, Y3)
	ADDQ $4, R9
	JMP  b4loop
b4tail:
	CMPQ R9, BX
	JGE  b4sum
	NZ4(0, Y0)
	INCQ R9
	CMPQ R9, BX
	JGE  b4sum
	NZ4(0, Y1)
	INCQ R9
	CMPQ R9, BX
	JGE  b4sum
	NZ4(0, Y2)
b4sum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R13
	JMP  block

b1:
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	MOVQ   AX, R9
b1loop:
	LEAQ 4(R9), R11
	CMPQ R11, BX
	JGT  b1tail
	NZ1(0, X0)
	NZ1(1, X1)
	NZ1(2, X2)
	NZ1(3, X3)
	ADDQ $4, R9
	JMP  b1loop
b1tail:
	CMPQ R9, BX
	JGE  b1sum
	NZ1(0, X0)
	INCQ R9
	CMPQ R9, BX
	JGE  b1sum
	NZ1(0, X1)
	INCQ R9
	CMPQ R9, BX
	JGE  b1sum
	NZ1(0, X2)
b1sum:
	VADDSD X1, X0, X0
	VADDSD X3, X2, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, R13
	JMP  block

done:
	VZEROUPPER
	RET
