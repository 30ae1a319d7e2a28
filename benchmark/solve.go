package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	ocs "repro"
	"repro/internal/apps"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// solveCase is one linear solve or PageRank run of a solve workload.
type solveCase struct {
	name     string
	app      string // cg, bicgstab, pagerank
	a        *sparse.CSR
	dangling []bool
	b        []float64
	tol      float64
	ref      []float64 // the sequential CSR solve, the agreement oracle
}

// selectorTol is the tolerance on the scale of the progress values the
// solver reports: absolute residual norm for the linear solvers (whose own
// tolerance is relative to ||b||), L1 delta for PageRank.
func (c *solveCase) selectorTol() float64 {
	if c.app == "pagerank" {
		return c.tol
	}
	return c.tol * norm2(c.b)
}

func (c *solveCase) run(op apps.Operator, hook apps.Hook) (apps.Result, error) {
	switch c.app {
	case "cg", "bicgstab":
		o := apps.DefaultSolveOptions()
		o.Tol, o.MaxIters = c.tol, 20000
		if c.app == "cg" {
			return apps.CG(op, c.b, o, hook)
		}
		return apps.BiCGSTAB(op, c.b, o, hook)
	case "pagerank":
		o := apps.DefaultPageRankOptions()
		o.Tol, o.MaxIters = c.tol, 20000
		return apps.PageRank(op, c.dangling, o, hook)
	}
	return apps.Result{}, fmt.Errorf("unknown app %q", c.app)
}

// verify is the correctness gate for one solve: it converged, the answer
// satisfies the equation when checked with the sequential reference product
// (not the kernel under test), and it agrees with the sequential CSR solve.
func (c *solveCase) verify(r apps.Result) error {
	if !r.Converged {
		return fmt.Errorf("%s: not converged after %d iterations (residual %g)", c.name, r.Iterations, r.Residual)
	}
	ax := check.RefSpMV(c.a, r.X)
	if c.app == "pagerank" {
		// One reference power step must move the vector by no more than the
		// solver's own last step did, give or take rounding.
		next := pagerankStep(ax, r.X, c.dangling, apps.DefaultPageRankOptions().Damping)
		var d float64
		for i := range next {
			d += math.Abs(next[i] - r.X[i])
		}
		if d > 10*c.tol {
			return fmt.Errorf("%s: reference step moves the ranks by %g, tolerance %g", c.name, d, c.tol)
		}
	} else {
		var rr float64
		for i := range ax {
			d := c.b[i] - ax[i]
			rr += d * d
		}
		// The recurrence residual the solver stops on drifts from the true
		// one by rounding; 10x is generous for these conditionings.
		if rel := math.Sqrt(rr) / norm2(c.b); rel > 10*c.tol {
			return fmt.Errorf("%s: true relative residual %g, tolerance %g", c.name, rel, c.tol)
		}
	}
	if rel := relDiff(r.X, c.ref); rel > 1e-6 {
		return fmt.Errorf("%s: differs from the sequential CSR solve by %g relative", c.name, rel)
	}
	return nil
}

func pagerankStep(px, x []float64, dangling []bool, d float64) []float64 {
	n := float64(len(x))
	var mass float64
	for i, dang := range dangling {
		if dang {
			mass += x[i]
		}
	}
	base := ((1 - d) + d*mass) / n
	out := make([]float64, len(x))
	for i := range out {
		out[i] = d*px[i] + base
	}
	return out
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func relDiff(x, ref []float64) float64 {
	var num, den float64
	for i := range ref {
		d := x[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 + rng.Float64()
	}
	return v
}

// scaled shrinks a row count for the smoke test, never below what keeps the
// generators and the K = 15 selector gate meaningful.
func scaled(n int, scale float64) int {
	return max(int(float64(n)*scale), 400)
}

// solveSuite builds the cases of a solve workload. The generators are
// single-threaded, so the cases are built nproc at a time.
func solveSuite(long bool, seed int64, scale float64, nproc int) ([]*solveCase, error) {
	type builder func(rng *rand.Rand) (*solveCase, error)
	edge2 := func(k int) int { return max(int(float64(k)*math.Sqrt(scale)), 20) }
	edge3 := func(k int) int { return max(int(float64(k)*math.Cbrt(scale)), 8) }
	// solve_long stops at 1e-6 (about 1100 and 170 iterations): at 1e-8 one
	// CSR + adaptive round takes 9.4 s and the run-time cap fits only one.
	tol := 1e-8
	if long {
		tol = 1e-6
	}
	linear := func(name, app string, a *sparse.CSR, err error, rng *rand.Rand) (*solveCase, error) {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		n, _ := a.Dims()
		return &solveCase{name: name, app: app, a: a, b: randVec(rng, n), tol: tol}, nil
	}
	dominant := func(a *sparse.CSR, err error) (*sparse.CSR, error) {
		if err != nil {
			return nil, err
		}
		return matgen.MakeDominant(a, 0.02)
	}
	var builders []builder
	if long {
		builders = []builder{
			func(rng *rand.Rand) (*solveCase, error) {
				a, err := matgen.Stencil2D(edge2(500))
				return linear("cg-stencil2d", "cg", a, err, rng)
			},
			func(rng *rand.Rand) (*solveCase, error) {
				a, err := matgen.Stencil3D(edge3(64))
				return linear("cg-stencil3d", "cg", a, err, rng)
			},
		}
	} else {
		builders = []builder{
			func(rng *rand.Rand) (*solveCase, error) {
				a, err := dominant(matgen.Banded(scaled(400_000, scale), 9, rng))
				return linear("bicgstab-banded", "bicgstab", a, err, rng)
			},
			func(rng *rand.Rand) (*solveCase, error) {
				n := scaled(300_000, scale)
				adj, err := matgen.PowerLaw(n, n, 12, 2.1, rng)
				if err != nil {
					return nil, fmt.Errorf("pagerank-powerlaw: %w", err)
				}
				p, dangling, err := apps.BuildTransition(adj)
				if err != nil {
					return nil, fmt.Errorf("pagerank-powerlaw: %w", err)
				}
				return &solveCase{name: "pagerank-powerlaw", app: "pagerank", a: p, dangling: dangling, tol: 1e-10}, nil
			},
			func(rng *rand.Rand) (*solveCase, error) {
				a, err := matgen.Stencil3D(edge3(67))
				return linear("cg-stencil3d", "cg", a, err, rng)
			},
			func(rng *rand.Rand) (*solveCase, error) {
				n := scaled(300_000, scale)
				a, err := dominant(matgen.UniformRows(n, n, 12, rng))
				return linear("bicgstab-uniform", "bicgstab", a, err, rng)
			},
			func(rng *rand.Rand) (*solveCase, error) {
				a, err := dominant(matgen.Block(scaled(200_000, scale), 4, 12, rng))
				return linear("bicgstab-block", "bicgstab", a, err, rng)
			},
			func(rng *rand.Rand) (*solveCase, error) {
				a, err := matgen.Generate(matgen.Spec{Family: matgen.FamSPD, Size: scaled(100_000, scale), Degree: 8, Seed: rng.Int63()})
				return linear("cg-spd", "cg", a, err, rng)
			},
		}
	}
	cases := make([]*solveCase, len(builders))
	errs := make([]error, len(builders))
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	for i, build := range builders {
		wg.Add(1)
		go func(i int, build builder) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := build(rand.New(rand.NewSource(seed*1000 + int64(i))))
			if err == nil {
				// The reference solve doubles as the warm-up of the page
				// cache and the kernels' first-touch placement.
				var r apps.Result
				if r, err = c.run(apps.Ser(c.a), nil); err == nil && !r.Converged {
					err = fmt.Errorf("%s: sequential reference solve did not converge", c.name)
				}
				c.ref = r.X
			}
			cases[i], errs[i] = c, err
		}(i, build)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// timedOp is the apps-layer boundary: it times every SpMV the solver issues
// and records it as a child of the solve's span. SwapPoint is forwarded so
// wrapping never changes what the adaptive operator does.
type timedOp struct {
	op     apps.Operator
	rec    *recorder
	parent int
	busy   time.Duration
	// lastEnd and the widest gap between two calls: an inline stage 2 runs
	// in the solver's hook, so that gap is where it happened.
	lastEnd  time.Time
	gapStart time.Time
	gap      time.Duration
}

func (t *timedOp) SpMV(y, x []float64) {
	s := time.Now()
	t.op.SpMV(y, x)
	e := time.Now()
	if g := s.Sub(t.lastEnd); !t.lastEnd.IsZero() && g > t.gap {
		t.gapStart, t.gap = t.lastEnd, g
	}
	t.lastEnd = e
	t.busy += e.Sub(s)
	t.rec.add("apps.spmv", "", t.parent, s, e)
}

func (t *timedOp) Dims() (int, int) { return t.op.Dims() }

func (t *timedOp) SwapPoint() {
	if sp, ok := t.op.(apps.SwapPointer); ok {
		sp.SwapPoint()
	}
}

// solveStats is what one pass over the suite leaves behind.
type solveStats struct {
	seconds    float64
	iterations int
	spmvCalls  int
	spmvBusy   time.Duration
	stage2     int
	converted  int
	paid       float64
	hidden     float64
	perCase    []float64 // seconds per case, suite order
	calls      []int     // solver SpMV calls per case
	formats    []string  // format each case ended on
}

// solveWorkload runs solve_long or solve_short: rounds of the whole suite,
// each case solved once on always-CSR and once through ocs.NewAdaptive back
// to back, so that the two sides of a round see the same weather, the order
// of the two flipping every round so neither side always runs on the cache
// state the other left. A side's pass is the sum of its solves of a round.
func (b *bench) solveWorkload(name string) (*outcome, error) {
	long := name == "solve_long"
	out := b.newOutcome(name)
	setup := time.Now()
	cases, err := solveSuite(long, b.cfg.seed, b.cfg.scale, b.nproc)
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		out.WorkingSetBytes += c.a.Bytes()
	}
	setupS := b.endSetup(setup)

	var csrPasses, adPasses []solveStats
	// solveOne runs one case on one side and adds it to that side's pass.
	solveOne := func(c *solveCase, adaptive bool, root int, st *solveStats) {
		t0 := time.Now()
		spanName := "solve.csr"
		if adaptive {
			spanName = "solve.adaptive"
		}
		id := out.rec.reserve(spanName, c.name, root)
		var (
			op   apps.Operator
			hook apps.Hook
			ad   *core.Adaptive
		)
		if adaptive {
			ad = ocs.NewAdaptive(c.a, c.selectorTol(), b.preds)
			op, hook = ad, func(_ int, p float64) { ad.RecordProgress(p) }
		} else {
			op = apps.Par(c.a)
		}
		var tw *timedOp
		if out.rec != nil {
			tw = &timedOp{op: op, rec: out.rec, parent: id}
			op = tw
		}
		r, err := c.run(op, hook)
		t1 := time.Now()
		out.rec.finish(id, t0, t1)
		out.Attempted++
		if err == nil {
			err = c.verify(r)
		}
		if err != nil {
			out.fail(err)
		}
		d := t1.Sub(t0).Seconds()
		st.seconds += d
		st.perCase = append(st.perCase, d)
		st.calls = append(st.calls, r.SpMVs)
		st.iterations += r.Iterations
		st.spmvCalls += r.SpMVs
		if tw != nil {
			st.spmvBusy += tw.busy
		}
		if ad != nil {
			ad.Close()
			s := ad.Stats()
			if s.Stage2Ran {
				st.stage2++
			}
			if s.Converted {
				st.converted++
			}
			st.paid += s.PaidSeconds
			st.hidden += s.HiddenSeconds
			st.formats = append(st.formats, s.Format.String())
			// Stats() gives the stages' durations, not their instants;
			// they are laid out in the gap they must have run in.
			if tw != nil && s.Stage2Ran {
				at := tw.gapStart
				for _, stage := range []struct {
					name string
					s    float64
				}{{"core.features", s.FeatureSeconds}, {"core.predict", s.PredictSeconds}, {"core.convert", s.ConvertSeconds}} {
					end := at.Add(time.Duration(stage.s * float64(time.Second)))
					out.rec.add(stage.name, s.Format.String(), id, at, end)
					at = end
				}
			}
		}
	}

	start := time.Now()
	var roundS float64
	for round := 0; ; round++ {
		if el := time.Since(start).Seconds(); round > 0 && el+roundS/2 > b.cfg.seconds {
			break
		}
		r0 := time.Now()
		root := out.rec.reserve("round", "", 0)
		var csr, ad solveStats
		for _, c := range cases {
			for _, adaptive := range []bool{round%2 == 1, round%2 == 0} {
				if adaptive {
					solveOne(c, true, root, &ad)
				} else {
					solveOne(c, false, root, &csr)
				}
			}
		}
		csrPasses, adPasses = append(csrPasses, csr), append(adPasses, ad)
		out.rec.finish(root, r0, time.Now())
		roundS = time.Since(start).Seconds() / float64(round+1)
	}

	secs := func(p []solveStats) []float64 {
		v := make([]float64, len(p))
		for i := range p {
			v[i] = p[i].seconds
		}
		return v
	}
	// speedup_vs_csr is paired inside each round, where the two sides ran
	// back to back, and the median over the rounds: dividing the two sides'
	// medians pairs a pass with one that ran seconds away, and on this box
	// seconds away is other weather. A library call has no tail and no
	// deadline: op_tail_x is the neutral 1 and slo_ok_share the share of
	// solves that passed the gate.
	solveS, csrS := median(secs(adPasses)), median(secs(csrPasses))
	speedups := make([]float64, len(adPasses))
	for i := range speedups {
		speedups[i] = csrPasses[i].seconds / adPasses[i].seconds
	}
	opsPerS := float64(out.Attempted) / (sum(secs(adPasses)) + sum(secs(csrPasses)))
	out.e2e.set("setup_s", setupS)
	out.e2e.set("op_tail_x", 1)
	out.e2e.set("speedup_vs_csr", median(speedups))
	out.e2e.set("slo_ok_share", float64(out.Attempted-out.Failed)/float64(out.Attempted))
	out.Detail["op_p50_ms"] = 1e3 * solveS
	out.Detail["ops_per_s"] = opsPerS
	out.Detail["rounds"] = len(adPasses)
	out.Detail["csr_solve_s"] = csrS
	for i, c := range cases {
		last := adPasses[len(adPasses)-1]
		out.Detail["case."+c.name] = fmt.Sprintf("%d spmv, csr %.3fs, adaptive %.3fs -> %s",
			last.calls[i], csrPasses[len(csrPasses)-1].perCase[i], last.perCase[i], last.formats[i])
	}

	if b.cfg.traced {
		last := adPasses[len(adPasses)-1]
		l := out.layers
		l.set("bench.op_p50_ms", 1e3*solveS)
		l.set("bench.csr_solve_s", csrS)
		l.set("bench.ops_per_s", opsPerS)
		l.set("apps.iterations", float64(last.iterations))
		l.set("apps.spmv_calls", float64(last.spmvCalls))
		l.set("apps.spmv_busy_s", last.spmvBusy.Seconds())
		l.set("apps.spmv_share", last.spmvBusy.Seconds()/last.seconds)
		l.set("core.stage2_runs", float64(last.stage2))
		l.set("core.conversions", float64(last.converted))
		l.set("core.overhead_paid_s", last.paid)
		l.set("core.overhead_hidden_s", last.hidden)
		l.set("core.overhead_share", last.paid/last.seconds)
		l.set("core.regret_vs_oracle", regretVsOracle(cases, adPasses, csrPasses))
	}
	return out, nil
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// regretVsOracle divides the adaptive suite time by the best a selector with
// hindsight could have done: per case, the measured always-CSR time with its
// SpMV share swapped for the cheapest (conversion + calls x SpMV) over every
// format of the kernel panel the matrix admits, each timed here.
func regretVsOracle(cases []*solveCase, ad, csr []solveStats) float64 {
	perCase := func(p []solveStats, i int) float64 {
		v := make([]float64, len(p))
		for j := range p {
			v[j] = p[j].perCase[i]
		}
		return median(v)
	}
	var adTotal, best float64
	for i, c := range cases {
		rows, cols := c.a.Dims()
		x, y := randVec(rand.New(rand.NewSource(1)), cols), make([]float64, rows)
		calls := float64(csr[0].calls[i])
		tCSR := timeMedian(3, func() { c.a.SpMVParallel(y, x) })
		cheapest := calls * tCSR
		for _, name := range kernelFormats[1:] {
			if _, conv, spmv, ok := formatCost(c.a, name, y, x, 3); ok {
				cheapest = math.Min(cheapest, conv+calls*spmv)
			}
		}
		best += math.Max(perCase(csr, i)-calls*tCSR, 0) + cheapest
		adTotal += perCase(ad, i)
	}
	return adTotal / best
}
