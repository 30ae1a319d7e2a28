package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchSink float64

// BenchmarkSolverVectorWork times the vector work of one solver iteration
// — everything but the SpMV — as the solvers now run it (fused) and as
// they ran it before the blocked layer (loops, ref_test.go). The number
// after the side is the vector streams one iteration touches; SetBytes is
// that count times 8n, so the MB/s column is the streaming rate reached
// and ns/op the time the solver pays. Run with -cpu 1,2: below
// parallelMin the two agree, above it the gap is the team's dispatch.
func BenchmarkSolverVectorWork(b *testing.B) {
	for _, n := range []int{32_000, 250_000, 400_000} {
		rng := rand.New(rand.NewSource(1))
		vs := make([][]float64, 7)
		for k := range vs {
			vs[k] = make([]float64, n)
			for i := range vs[k] {
				vs[k][i] = rng.NormFloat64()
			}
		}
		x, r, rhat, p, v, s, t := vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6]
		dangling := make([]bool, n)
		for i := range dangling {
			dangling[i] = rng.Intn(8) == 0
		}
		ps := NewPass(n)
		const alpha, beta, omega, damping = 1e-3, 0.5, 1e-3, 0.85
		sides := []struct {
			name    string
			streams int64
			iter    func()
		}{
			{"CG/fused-10", 10, func() {
				pap := ps.Dot(p, v)
				rr := ps.AxpyTo(r, -alpha, v, r)
				ps.CGDirection(x, alpha, p, r, beta)
				benchSink += pap + rr
			}},
			{"CG/loops-12", 12, func() {
				pap, rr := refCG(alpha, beta, x, r, p, v)
				benchSink += pap + rr
			}},
			{"BiCGSTAB/fused-18", 18, func() {
				ps.BiCGSTABDirection(p, r, beta, omega, v)
				den := ps.Dot(rhat, v)
				ss := ps.AxpyTo(s, -alpha, v, r)
				tt, ts := ps.Dot2(t, s)
				rr, rho := ps.BiCGSTABUpdate(x, r, alpha, p, omega, s, t, rhat)
				benchSink += den + ss + tt + ts + rr + rho
			}},
			{"BiCGSTAB/loops-23", 23, func() {
				rho, den, sn, tt, ts, rn := refBiCGSTAB(alpha, beta, omega, x, r, rhat, p, v, s, t)
				benchSink += rho + den + sn + tt + ts + rn
			}},
			{"PageRank/fused-3", 3, func() {
				delta, mass := ps.PageRankUpdate(s, t, dangling, damping, 0.15/float64(n))
				s, t = t, s
				benchSink += delta + mass
			}},
			{"PageRank/loops-4", 4, func() {
				delta, mass := refPageRank(s, t, dangling, damping)
				s, t = t, s
				benchSink += delta + mass
			}},
		}
		for _, side := range sides {
			b.Run(fmt.Sprintf("%s/n=%dk", side.name, n/1000), func(b *testing.B) {
				b.SetBytes(side.streams * 8 * int64(n))
				for i := 0; i < b.N; i++ {
					side.iter()
				}
			})
		}
	}
}
