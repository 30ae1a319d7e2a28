package vec

import "math"

// The serial, unfused loops the solvers ran before the blocked layer, kept
// as the reference side: the tests hold every fused body's vectors to them
// entry by entry, the benchmark times one iteration of each against them.

func refDot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func refAxpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// refCG is the vector work of one CG iteration: 5 passes, 12 streams.
func refCG(alpha, beta float64, x, r, p, ap []float64) (pap, rr float64) {
	pap = refDot(p, ap)
	refAxpy(alpha, p, x)
	refAxpy(-alpha, ap, r)
	rr = refDot(r, r)
	for i := range p {
		p[i] = r[i] + beta*p[i]
	}
	return pap, rr
}

// refBiCGSTAB is the vector work of one BiCGSTAB iteration: 10 passes, 23
// streams, two of them the scaled norm.
func refBiCGSTAB(alpha, beta, omega float64, x, r, rhat, p, v, s, t []float64) (rho, den, snorm, tt, ts, rnorm float64) {
	rho = refDot(rhat, r)
	for i := range p {
		p[i] = r[i] + beta*(p[i]-omega*v[i])
	}
	den = refDot(rhat, v)
	for i := range s {
		s[i] = r[i] - alpha*v[i]
	}
	snorm = Nrm2(s)
	tt = refDot(t, t)
	ts = refDot(t, s)
	for i := range x {
		x[i] += alpha*p[i] + omega*s[i]
	}
	for i := range r {
		r[i] = s[i] - omega*t[i]
	}
	rnorm = Nrm2(r)
	return
}

// refPageRank is the vector work of one PageRank iteration: the dangling
// sweep over x and the update, 4 streams.
func refPageRank(next, x []float64, dangling []bool, damping float64) (delta, mass float64) {
	for i, d := range dangling {
		if d {
			mass += x[i]
		}
	}
	teleport := ((1 - damping) + damping*mass) / float64(len(x))
	for i := range next {
		next[i] = damping*next[i] + teleport
		delta += math.Abs(next[i] - x[i])
	}
	return delta, mass
}

func refJacobi(x, b, ax []float64, omega float64, diag []float64) (rr float64) {
	for i := range x {
		r := b[i] - ax[i]
		rr += r * r
		x[i] += omega * r / diag[i]
	}
	return rr
}
