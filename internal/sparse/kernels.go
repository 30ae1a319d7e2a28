package sparse

import (
	"os"
	"sync/atomic"
)

// The vectorized kernel layer. On amd64 hosts with AVX2+FMA (and outside
// noasm builds) the CSR, ELL, SELL, JDS and DIA SpMV inner loops dispatch to
// the hand-written assembly kernels in kernels_amd64.s: 4-lane FMA
// accumulation, VGATHERQPD for the x gathers, software prefetch on the
// streamed col/data arrays, masked gathers over the padded layouts, and
// DIA's gather-free 8-lane diagonal accumulator; the blocked CSR SpMM
// (spmm.go) dispatches to the row-panel kernel there. Everything else — other
// architectures, noasm builds, hosts without the features, or tests that
// force the fallback — runs the pure-Go loops that live next to each format.
//
// The variant is picked once at package init (per the paper's
// overhead-consciousness: a per-call feature test would tax the very kernel
// the selector is trying to price) and is observable through KernelVariant,
// so bench records and decision traces can say which kernels they measured.

// vecMinRow is the row length below which the scalar loop beats the
// assembly call. Two costs conspire against short rows: the call's ABI
// overhead plus horizontal reduction, and — when a row's columns are
// contiguous (banded/block matrices) — the gather paying full per-lane
// latency for x entries the scalar loop streams off one cache line. At 16
// the vectorized dot wins even on scattered columns by ~1.2x
// (BenchmarkCSRRowDot); below it the advantage is inside noise at best and
// a ~25% loss on block-structured rows at worst.
const vecMinRow = 16

// csrSegmentNNZ bounds the entries one assembly call streams from a single
// row: the cache-blocked tiling for the long-row regime. A segment touches
// csrSegmentNNZ * 12 bytes of col+data (384 KiB — comfortably inside L2),
// so the prefetched stream never evicts the x window the row's gathers are
// hitting; per-segment partial sums are combined in order, keeping the
// result deterministic for a given variant.
const csrSegmentNNZ = 1 << 15

// vectorOn is the dispatch switch, set at init and flipped only by
// ForceGenericKernels (tests and the noasm escape hatch OCS_NOASM=1).
// Kernels read it once per parallel region or row range, not per row.
var vectorOn atomic.Bool

func init() {
	vectorOn.Store(asmAvailable() && os.Getenv("OCS_NOASM") == "")
}

// HasVectorKernels reports whether this binary carries assembly kernels the
// current CPU can run (independent of whether they are currently forced
// off).
func HasVectorKernels() bool { return asmAvailable() }

// KernelVariant names the SpMV kernel set currently dispatched to: "avx2"
// or "generic". Recorded in bench reports so cross-machine baselines can be
// told apart.
func KernelVariant() string {
	if vectorOn.Load() {
		return "avx2"
	}
	return "generic"
}

// ForceGenericKernels forces (or un-forces) the pure-Go fallback kernels,
// returning the previous forced state so callers can restore it. Used by
// the differential tests that compare the assembly kernels against the
// fallback, and available to operators via OCS_NOASM=1. Un-forcing is a
// no-op on hosts without assembly kernels.
func ForceGenericKernels(force bool) (prev bool) {
	prev = !vectorOn.Load()
	vectorOn.Store(!force && asmAvailable())
	return prev
}

// csrRowDot computes one CSR row's dot product with the vector kernel,
// segmenting rows past csrSegmentNNZ so each assembly call stays inside the
// cache block (see the constant's comment). Callers guarantee
// len(data) == len(col) > 0.
func csrRowDot(col []int32, data []float64, x []float64) float64 {
	n := len(data)
	if n <= csrSegmentNNZ {
		return gatherDotAsm(&col[0], &data[0], &x[0], n)
	}
	var sum float64
	for lo := 0; lo < n; lo += csrSegmentNNZ {
		hi := lo + csrSegmentNNZ
		if hi > n {
			hi = n
		}
		sum += gatherDotAsm(&col[lo], &data[lo], &x[0], hi-lo)
	}
	return sum
}

// jdsAccum computes yp[r] += data[r] * x[col[r]] over the whole slice — the
// jagged-diagonal inner loop. The arrays are contiguous except the x
// gather, which is exactly the shape the assembly kernel streams best.
// Every segment, however short, goes to the assembly kernel when it is on:
// its scalar tail is an FMA like its lanes, so an entry's rounding does not
// depend on where a worker's range cut the diagonal.
func jdsAccum(col []int32, data, x, yp []float64) {
	if len(yp) > 0 && vectorOn.Load() {
		jdsAccumAsm(&col[0], &data[0], &x[0], &yp[0], len(yp))
		return
	}
	for r := range yp {
		yp[r] += data[r] * x[col[r]]
	}
}

// diaAccum computes y[i] += d[i] * x[i] over the whole slice — one DIA
// diagonal's segment of a row tile. The generic loop rounds the product and
// the sum apart; the assembly kernel FMAs every element, lanes and tail
// alike, so neither variant's rounding depends on where a segment starts.
func diaAccum(y, d, x []float64) {
	if len(y) > 0 && vectorOn.Load() {
		diaAccumAsm(&d[0], &x[0], &y[0], len(y))
		return
	}
	d, x = d[:len(y)], x[:len(y)]
	for i := range y {
		y[i] += d[i] * x[i]
	}
}
