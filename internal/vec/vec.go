// Package vec is the solvers' vector layer: one blocked pass driver and, on
// it, the fused bodies the loops in internal/apps are written in.
//
// A pass cuts [0, n) into blocks of Block elements — block b is
// [b*Block, min((b+1)*Block, n)) — and runs a body over each. A body
// updates its operands in place and returns up to two partial sums, summed
// inside the block in a fixed order (interleaved accumulators, four a sum
// or two, combined pairwise). The partials are then added in ascending
// block order. Both the cut and the two orders depend on n alone, so every
// reduction is a function of its operands: the same bits at any
// GOMAXPROCS, whether the blocks ran inline or on the team, whichever
// worker claimed which block. Fusing is what the layer is for: these
// kernels stream at the memory system's rate, so a pass costs its bytes,
// and a solver iteration costs the streams it touches (DESIGN §18).
package vec

import (
	"math"
	"sync"

	"repro/internal/parallel"
)

// Block is the number of elements in one block of a pass. It is part of
// the reduction contract: changing it changes the summation order.
const Block = 4096

// parallelMin is the shortest vector whose blocks go to the worker team;
// shorter passes run inline on the caller. It is set by what a two-worker
// pass costs before it moves a byte, and is a constant, not a knob.
// parallel.dispatch_us (0.26 us) is only the dispatcher's send; waking the
// parked worker and waiting for its last claim adds 8-13 us a pass on the
// reference box (BenchmarkSolverVectorWork-style CG passes at -cpu 2 against
// -cpu 1: +23 us over three passes at n = 32k, +40 us at 64k, 100k and
// 128k). A CG pass at 64k takes 46 us inline, so where a second core adds
// bandwidth, halving it pays for the handshake from here up and not at 32k.
// The reference box's memory system gives a second streaming core little:
// here the two-worker pass is 28% slower at 64k, 10% at 128k, and 10%
// faster at 250k.
const parallelMin = 1 << 16

// claimBlocks is how many consecutive blocks a team worker claims at a
// time: dynamic claiming, so a worker that wakes late costs the pass one
// claim, not half the vector. From 1 to 16 the time does not change.
const claimBlocks = 4

// body runs one pass body over [lo, hi), reading its operands from p.
type body func(p *Pass, lo, hi int) (s0, s1 float64)

// tile is the unit the reducing bodies step by. A slice becomes a
// fixed-size array once per tile, which leaves the four-way interleaved
// inner loop with constant bounds: no bounds checks, one index register,
// no spills — 29 GB/s on the seven-stream BiCGSTAB update where stepping
// the slices themselves by four reads 20. Block is a multiple of it, so
// only the last block of a vector has a tail.
const tile = 64

type tileOf = [tile]float64

// Pass is a solve's scratch for blocked passes: the per-block partial sums
// and the operands of the pass in flight. Its methods are the passes; each
// returns only when every block has run. A Pass serves one goroutine at a
// time — every solve makes its own — and its passes allocate nothing.
type Pass struct {
	part   [][2]float64     // partial sums, one pair per block
	ranges [][2]int         // the team's claims, in blocks, cut for n
	n      int              // vector length part and ranges are sized for
	claim  func(lo, hi int) // p.runBlocks, bound once so a pass allocates nothing

	// The pass in flight.
	fn   body
	a, b float64
	v    [6][]float64
	mask []bool
}

// NewPass returns the scratch for passes over vectors of length n. A pass
// over another length works, and re-sizes the scratch.
func NewPass(n int) *Pass {
	p := &Pass{}
	p.claim = p.runBlocks
	p.fit(n)
	return p
}

// fit sizes the partials and the team's claims for length n.
func (p *Pass) fit(n int) {
	if n == p.n {
		return
	}
	p.n = n
	if n < parallelMin {
		return // inline passes need neither
	}
	nb := (n + Block - 1) / Block
	p.part = make([][2]float64, nb)
	p.ranges = p.ranges[:0]
	for lo := 0; lo < nb; lo += claimBlocks {
		p.ranges = append(p.ranges, [2]int{lo, min(lo+claimBlocks, nb)})
	}
}

// runBlocks runs the pass in flight over blocks [blo, bhi).
func (p *Pass) runBlocks(blo, bhi int) {
	for b := blo; b < bhi; b++ {
		lo := b * Block
		p.part[b][0], p.part[b][1] = p.fn(p, lo, min(lo+Block, p.n))
	}
}

// run is the pass driver: fn over every block of [0, n), the partial sums
// added in ascending block order.
func (p *Pass) run(n int, fn body) (s0, s1 float64) {
	if n < parallelMin || parallel.Workers() <= 1 {
		for lo := 0; lo < n; lo += Block {
			t0, t1 := fn(p, lo, min(lo+Block, n))
			s0 += t0
			s1 += t1
		}
		return s0, s1
	}
	p.fit(n)
	p.fn = fn
	parallel.ForRanges(p.ranges, p.claim)
	for _, t := range p.part {
		s0 += t[0]
		s1 += t[1]
	}
	return s0, s1
}

func sameLen(name string, n int, vs ...[]float64) {
	for _, v := range vs {
		if len(v) != n {
			panic("vec: dimension mismatch in " + name)
		}
	}
}

// Dot returns x·y.
func (p *Pass) Dot(x, y []float64) float64 {
	sameLen("Dot", len(x), y)
	p.v[0], p.v[1] = x, y
	s, _ := p.run(len(x), dotBody)
	return s
}

func dotBody(p *Pass, lo, hi int) (float64, float64) {
	x, y := p.v[0][lo:hi], p.v[1][lo:hi]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(x)-tile; i += tile {
		x, y := (*tileOf)(x[i:]), (*tileOf)(y[i:])
		for j := 0; j < tile; j += 4 {
			s0 += x[j] * y[j]
			s1 += x[j+1] * y[j+1]
			s2 += x[j+2] * y[j+2]
			s3 += x[j+3] * y[j+3]
		}
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3), 0
}

// Dot2 returns x·x and x·y from one pass: BiCGSTAB's t·t and t·s, the
// power method's ||Ax||² and x·Ax.
func (p *Pass) Dot2(x, y []float64) (xx, xy float64) {
	sameLen("Dot2", len(x), y)
	p.v[0], p.v[1] = x, y
	return p.run(len(x), dot2Body)
}

func dot2Body(p *Pass, lo, hi int) (float64, float64) {
	x, y := p.v[0][lo:hi], p.v[1][lo:hi]
	// Two accumulators a sum: four each is eight live sums, which spill and
	// run slower (190 us against 160 at n = 250k) on two streams this short.
	var s0, s1, t0, t1 float64
	i := 0
	for ; i <= len(x)-tile; i += tile {
		x, y := (*tileOf)(x[i:]), (*tileOf)(y[i:])
		for j := 0; j < tile; j += 2 {
			s0 += x[j] * x[j]
			t0 += x[j] * y[j]
			s1 += x[j+1] * x[j+1]
			t1 += x[j+1] * y[j+1]
		}
	}
	for ; i < len(x); i++ {
		s0 += x[i] * x[i]
		t0 += x[i] * y[i]
	}
	return s0 + s1, t0 + t1
}

// Axpy computes y += a*x.
func (p *Pass) Axpy(a float64, x, y []float64) {
	sameLen("Axpy", len(x), y)
	p.a, p.v[0], p.v[1] = a, x, y
	p.run(len(x), axpyBody)
}

func axpyBody(p *Pass, lo, hi int) (float64, float64) {
	a, x, y := p.a, p.v[0][lo:hi], p.v[1][lo:hi]
	y = y[:len(x)]
	for i, xi := range x {
		y[i] += a * xi
	}
	return 0, 0
}

// AxpyTo computes dst = y + a*x and returns dst·dst. dst may be x or y:
// CG's r -= alpha*Ap with r·r, BiCGSTAB's s = r - alpha*v with s·s, the
// last Gram-Schmidt step with ||w||², GMRES's r = b - Ax.
func (p *Pass) AxpyTo(dst []float64, a float64, x, y []float64) float64 {
	sameLen("AxpyTo", len(dst), x, y)
	p.a, p.v[0], p.v[1], p.v[2] = a, dst, x, y
	s, _ := p.run(len(dst), axpyToBody)
	return s
}

func axpyToBody(p *Pass, lo, hi int) (float64, float64) {
	a, dst, x, y := p.a, p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(dst)-tile; i += tile {
		dst, x, y := (*tileOf)(dst[i:]), (*tileOf)(x[i:]), (*tileOf)(y[i:])
		for j := 0; j < tile; j += 4 {
			d0 := y[j] + a*x[j]
			d1 := y[j+1] + a*x[j+1]
			d2 := y[j+2] + a*x[j+2]
			d3 := y[j+3] + a*x[j+3]
			dst[j], dst[j+1], dst[j+2], dst[j+3] = d0, d1, d2, d3
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
	}
	for ; i < len(dst); i++ {
		d := y[i] + a*x[i]
		dst[i] = d
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3), 0
}

// AxpyDot computes y += a*x and returns y·z: one modified Gram-Schmidt
// step together with the next step's coefficient. z must not be y.
func (p *Pass) AxpyDot(a float64, x, y, z []float64) float64 {
	sameLen("AxpyDot", len(x), y, z)
	p.a, p.v[0], p.v[1], p.v[2] = a, x, y, z
	s, _ := p.run(len(x), axpyDotBody)
	return s
}

func axpyDotBody(p *Pass, lo, hi int) (float64, float64) {
	a, x, y, z := p.a, p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(x)-tile; i += tile {
		x, y, z := (*tileOf)(x[i:]), (*tileOf)(y[i:]), (*tileOf)(z[i:])
		for j := 0; j < tile; j += 4 {
			y0 := y[j] + a*x[j]
			y1 := y[j+1] + a*x[j+1]
			y2 := y[j+2] + a*x[j+2]
			y3 := y[j+3] + a*x[j+3]
			y[j], y[j+1], y[j+2], y[j+3] = y0, y1, y2, y3
			s0 += y0 * z[j]
			s1 += y1 * z[j+1]
			s2 += y2 * z[j+2]
			s3 += y3 * z[j+3]
		}
	}
	for ; i < len(x); i++ {
		yi := y[i] + a*x[i]
		y[i] = yi
		s0 += yi * z[i]
	}
	return (s0 + s1) + (s2 + s3), 0
}

// ScaleTo computes dst = a*x.
func (p *Pass) ScaleTo(dst []float64, a float64, x []float64) {
	sameLen("ScaleTo", len(dst), x)
	p.a, p.v[0], p.v[1] = a, dst, x
	p.run(len(dst), scaleToBody)
}

func scaleToBody(p *Pass, lo, hi int) (float64, float64) {
	a, dst, x := p.a, p.v[0][lo:hi], p.v[1][lo:hi]
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = a * x[i]
	}
	return 0, 0
}

// MulTo computes dst = x*y entry by entry: the Jacobi preconditioner.
func (p *Pass) MulTo(dst, x, y []float64) {
	sameLen("MulTo", len(dst), x, y)
	p.v[0], p.v[1], p.v[2] = dst, x, y
	p.run(len(dst), mulToBody)
}

func mulToBody(p *Pass, lo, hi int) (float64, float64) {
	dst, x, y := p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi]
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
	return 0, 0
}

// CGDirection computes x += a*p and then p = z + b*p in one pass: the step
// along the old direction, deferred from the iteration that chose a, and
// the new direction (z is the residual, or PCG's preconditioned residual).
func (p *Pass) CGDirection(x []float64, a float64, dir, z []float64, b float64) {
	sameLen("CGDirection", len(x), dir, z)
	p.a, p.b, p.v[0], p.v[1], p.v[2] = a, b, x, dir, z
	p.run(len(x), cgDirectionBody)
}

func cgDirectionBody(p *Pass, lo, hi int) (float64, float64) {
	a, b, x, dir, z := p.a, p.b, p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi]
	dir, z = dir[:len(x)], z[:len(x)]
	for i := range x {
		d := dir[i]
		x[i] += a * d
		dir[i] = z[i] + b*d
	}
	return 0, 0
}

// BiCGSTABDirection computes p = r + beta*(p - omega*v).
func (p *Pass) BiCGSTABDirection(dir, r []float64, beta, omega float64, v []float64) {
	sameLen("BiCGSTABDirection", len(dir), r, v)
	p.a, p.b, p.v[0], p.v[1], p.v[2] = beta, omega, dir, r, v
	p.run(len(dir), bicgstabDirectionBody)
}

func bicgstabDirectionBody(p *Pass, lo, hi int) (float64, float64) {
	beta, omega, dir, r, v := p.a, p.b, p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi]
	r, v = r[:len(dir)], v[:len(dir)]
	for i := range dir {
		dir[i] = r[i] + beta*(dir[i]-omega*v[i])
	}
	return 0, 0
}

// BiCGSTABUpdate computes x += alpha*p + omega*s and r = s - omega*t, and
// returns r·r and rhat·r — the residual norm of this iteration and the rho
// of the next, from the pass that writes r.
func (p *Pass) BiCGSTABUpdate(x, r []float64, alpha float64, dir []float64, omega float64, s, t, rhat []float64) (rr, rho float64) {
	sameLen("BiCGSTABUpdate", len(x), r, dir, s, t, rhat)
	p.a, p.b = alpha, omega
	p.v[0], p.v[1], p.v[2], p.v[3], p.v[4], p.v[5] = x, r, dir, s, t, rhat
	return p.run(len(x), bicgstabUpdateBody)
}

func bicgstabUpdateBody(p *Pass, lo, hi int) (float64, float64) {
	alpha, omega := p.a, p.b
	x, r, dir, s, t, rhat := p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi], p.v[3][lo:hi], p.v[4][lo:hi], p.v[5][lo:hi]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	i := 0
	for ; i <= len(x)-tile; i += tile {
		x, r, dir := (*tileOf)(x[i:]), (*tileOf)(r[i:]), (*tileOf)(dir[i:])
		s, t, rhat := (*tileOf)(s[i:]), (*tileOf)(t[i:]), (*tileOf)(rhat[i:])
		for j := 0; j < tile; j += 4 {
			x[j] += alpha*dir[j] + omega*s[j]
			x[j+1] += alpha*dir[j+1] + omega*s[j+1]
			x[j+2] += alpha*dir[j+2] + omega*s[j+2]
			x[j+3] += alpha*dir[j+3] + omega*s[j+3]
			r0 := s[j] - omega*t[j]
			r1 := s[j+1] - omega*t[j+1]
			r2 := s[j+2] - omega*t[j+2]
			r3 := s[j+3] - omega*t[j+3]
			r[j], r[j+1], r[j+2], r[j+3] = r0, r1, r2, r3
			s0 += r0 * r0
			t0 += rhat[j] * r0
			s1 += r1 * r1
			t1 += rhat[j+1] * r1
			s2 += r2 * r2
			t2 += rhat[j+2] * r2
			s3 += r3 * r3
			t3 += rhat[j+3] * r3
		}
	}
	for ; i < len(x); i++ {
		x[i] += alpha*dir[i] + omega*s[i]
		ri := s[i] - omega*t[i]
		r[i] = ri
		s0 += ri * ri
		t0 += rhat[i] * ri
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// JacobiSweep computes r = b - ax and x += omega*r/diag entry by entry and
// returns r·r; r itself is not stored.
func (p *Pass) JacobiSweep(x, b, ax []float64, omega float64, diag []float64) float64 {
	sameLen("JacobiSweep", len(x), b, ax, diag)
	p.a, p.v[0], p.v[1], p.v[2], p.v[3] = omega, x, b, ax, diag
	s, _ := p.run(len(x), jacobiSweepBody)
	return s
}

func jacobiSweepBody(p *Pass, lo, hi int) (float64, float64) {
	omega, x, b, ax, diag := p.a, p.v[0][lo:hi], p.v[1][lo:hi], p.v[2][lo:hi], p.v[3][lo:hi]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(x)-tile; i += tile {
		x, b, ax, diag := (*tileOf)(x[i:]), (*tileOf)(b[i:]), (*tileOf)(ax[i:]), (*tileOf)(diag[i:])
		for j := 0; j < tile; j += 4 {
			r0 := b[j] - ax[j]
			r1 := b[j+1] - ax[j+1]
			r2 := b[j+2] - ax[j+2]
			r3 := b[j+3] - ax[j+3]
			s0 += r0 * r0
			s1 += r1 * r1
			s2 += r2 * r2
			s3 += r3 * r3
			x[j] += omega * r0 / diag[j]
			x[j+1] += omega * r1 / diag[j+1]
			x[j+2] += omega * r2 / diag[j+2]
			x[j+3] += omega * r3 / diag[j+3]
		}
	}
	for ; i < len(x); i++ {
		r := b[i] - ax[i]
		s0 += r * r
		x[i] += omega * r / diag[i]
	}
	return (s0 + s1) + (s2 + s3), 0
}

// PageRankUpdate computes next = damping*next + teleport and returns the
// L1 distance ||next - x||₁ and the mass next puts on dangling nodes — the
// teleport term of the following iteration, from the pass that writes it.
func (p *Pass) PageRankUpdate(next, x []float64, dangling []bool, damping, teleport float64) (delta, mass float64) {
	sameLen("PageRankUpdate", len(next), x)
	if len(dangling) != len(next) {
		panic("vec: dimension mismatch in PageRankUpdate")
	}
	p.a, p.b, p.v[0], p.v[1], p.mask = damping, teleport, next, x, dangling
	return p.run(len(next), pageRankUpdateBody)
}

func pageRankUpdateBody(p *Pass, lo, hi int) (float64, float64) {
	damping, teleport, next, x, dangling := p.a, p.b, p.v[0][lo:hi], p.v[1][lo:hi], p.mask[lo:hi]
	var s0, s1, s2, s3, m0, m1 float64
	i := 0
	for ; i <= len(next)-tile; i += tile {
		next, x, dangling := (*tileOf)(next[i:]), (*tileOf)(x[i:]), (*[tile]bool)(dangling[i:])
		for j := 0; j < tile; j += 4 {
			n0 := damping*next[j] + teleport
			n1 := damping*next[j+1] + teleport
			n2 := damping*next[j+2] + teleport
			n3 := damping*next[j+3] + teleport
			next[j], next[j+1], next[j+2], next[j+3] = n0, n1, n2, n3
			s0 += math.Abs(n0 - x[j])
			s1 += math.Abs(n1 - x[j+1])
			s2 += math.Abs(n2 - x[j+2])
			s3 += math.Abs(n3 - x[j+3])
			m0 += masked(dangling[j], n0)
			m1 += masked(dangling[j+1], n1)
			m0 += masked(dangling[j+2], n2)
			m1 += masked(dangling[j+3], n3)
		}
	}
	for ; i < len(next); i++ {
		ni := damping*next[i] + teleport
		next[i] = ni
		s0 += math.Abs(ni - x[i])
		m0 += masked(dangling[i], ni)
	}
	return (s0 + s1) + (s2 + s3), m0 + m1
}

// masked returns v where keep is set and +0 elsewhere, without a branch:
// which nodes dangle is data, not a pattern a branch predictor learns.
func masked(keep bool, v float64) float64 {
	var m uint64
	if keep {
		m = 1
	}
	return math.Float64frombits(math.Float64bits(v) & -m)
}

// Norm returns ||x||₂ given ss, the blocked sum of x's squares: its square
// root while ss is in a range where no square can have overflowed and none
// that matters underflowed, the scaled Nrm2 otherwise (zero and NaN
// included). Every norm on the solver path is taken this way, so the pass
// that writes a vector also yields its norm, with no division per element.
func Norm(ss float64, x []float64) float64 {
	if SafeSumSq(ss) {
		return math.Sqrt(ss)
	}
	return Nrm2(x)
}

// SafeSumSq reports whether a sum of squares can be trusted as it stands.
func SafeSumSq(ss float64) bool { return ss >= 1e-280 && ss <= 1e280 }

// Nrm2 returns the Euclidean norm of x, guarding against overflow the same
// way LAPACK's dnrm2 does (scaling by the running max magnitude).
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// passes lends scratch to the entry points that have no solve to keep one
// in. A lent Pass goes back without its operands, so the pool pins no
// caller's vectors.
var passes = sync.Pool{New: func() any { return NewPass(0) }}

func lend() *Pass { return passes.Get().(*Pass) }

func (p *Pass) giveBack() {
	p.v = [len(p.v)][]float64{}
	passes.Put(p)
}

// DotParallel returns x·y through the blocked driver.
func DotParallel(x, y []float64) float64 {
	p := lend()
	defer p.giveBack()
	return p.Dot(x, y)
}

// AxpyParallel computes y += a*x through the blocked driver.
func AxpyParallel(a float64, x, y []float64) {
	p := lend()
	defer p.giveBack()
	p.Axpy(a, x, y)
}

// MulParallel computes dst = x*y entry by entry through the blocked driver.
func MulParallel(dst, x, y []float64) {
	p := lend()
	defer p.giveBack()
	p.MulTo(dst, x, y)
}
