//go:build amd64 && !noasm

package sparse

import "repro/internal/cpufeat"

func asmAvailable() bool { return cpufeat.VectorKernels() }

// gatherDotAsm returns the dot product of data[0:n] with x gathered through
// col[0:n]: sum(data[k] * x[col[k]]). Deterministic lane order — 4-lane FMA
// partial sums reduced (l0+l2)+(l1+l3), then the scalar tail.
//
//go:noescape
func gatherDotAsm(col *int32, data *float64, x *float64, n int) float64

// sellSliceAsm computes one SELL slice of height exactly 8 and the given
// width, accumulating the 8 per-lane sums into sums[0:8] (caller zeroes).
// The layout is lane-major: entry (r, j) lives at cols[j*8+r]. Padding uses
// column -1 and is masked out of the gather.
//
//go:noescape
func sellSliceAsm(cols *int32, data *float64, x *float64, sums *float64, width int)

// diaAccumAsm performs y[i] += d[i] * x[i] for i in [0, n): one DIA
// diagonal's segment of a row tile, contiguous on all three arrays.
//
//go:noescape
func diaAccumAsm(d *float64, x *float64, y *float64, n int)

// spmmRowsAsm computes rows consecutive rows of the row-major panel product
// Y = A*X with k columns: ptr points at the first row's entry of the CSR row
// pointer (rows+1 entries are read), y at that row's k outputs; col, data and
// x are the whole arrays. Y[i][c] is summed in an order fixed by row i alone
// (see kernels_amd64.s).
//
//go:noescape
func spmmRowsAsm(ptr *int, col *int32, data *float64, x *float64, y *float64, k, rows int)
