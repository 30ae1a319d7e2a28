package ocs

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index), plus kernel-level benches
// for the SpMV and conversion substrate. The experiment benches run on the
// deterministic model oracle so their reported metrics are stable; the
// kernel benches measure the real Go kernels on this machine.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/arima"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// benchCtx builds the shared experiment context once per benchmark binary.
var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

func experimentContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		opt := experiments.DefaultOptions()
		opt.TrainCount = 64
		opt.EvalCount = 32
		opt.MinSize = 400
		opt.MaxSize = 3000
		opt.Params.NumRounds = 40
		benchCtx, benchCtxErr = experiments.NewContext(opt, timing.NewModelOracle())
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

// ---------------------------------------------------------------------------
// Experiment benchmarks (E1-E11 of DESIGN.md).

// BenchmarkFig2OOHistogram regenerates Figure 2: the histogram of PageRank
// speedups under oracle overhead-oblivious selection. Reported metric:
// fraction of runs that slow down.
func BenchmarkFig2OOHistogram(b *testing.B) {
	c := experimentContext(b)
	var slow float64
	for i := 0; i < b.N; i++ {
		h, err := c.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		slow = h.SlowdownFraction(0.95)
	}
	b.ReportMetric(slow, "slowdown-frac")
}

// BenchmarkTable3ConversionCost regenerates Table III: conversion cost in
// CSR-SpMV units. Reported metric: corpus-wide maximum ratio.
func BenchmarkTable3ConversionCost(b *testing.B) {
	c := experimentContext(b)
	var maxRatio float64
	for i := 0; i < b.N; i++ {
		t3 := c.RunTable3()
		maxRatio = 0
		for _, r := range t3.Rows {
			if r.Max > maxRatio {
				maxRatio = r.Max
			}
		}
	}
	b.ReportMetric(maxRatio, "max-conv/spmv")
}

// BenchmarkTable4FavoriteFormats regenerates Table IV. Reported metric: the
// number of matrices whose favorite format changes between OO and OC(100).
func BenchmarkTable4FavoriteFormats(b *testing.B) {
	c := experimentContext(b)
	var moved float64
	for i := 0; i < b.N; i++ {
		t4 := c.RunTable4()
		moved = float64(t4.OC[100][sparse.FmtCSR] - t4.OO[sparse.FmtCSR])
	}
	b.ReportMetric(moved, "moved-to-CSR@100")
}

// BenchmarkTable5PredictionError regenerates Table V: 5-fold CV errors of
// the primary predictors. Reported metric: worst per-format SpMV-time error.
func BenchmarkTable5PredictionError(b *testing.B) {
	c := experimentContext(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		t5, err := c.RunTable5()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range t5.Rows {
			if r.SpMVError > worst {
				worst = r.SpMVError
			}
		}
	}
	b.ReportMetric(worst*100, "worst-spmv-err-%")
}

// BenchmarkFig5SpMVFrame regenerates Figure 5: SpMVframe speedups vs loop
// length. Reported metrics: OC speedup at the longest loop and OO speedup
// at the shortest (the slowdown the paper highlights).
func BenchmarkFig5SpMVFrame(b *testing.B) {
	c := experimentContext(b)
	var ocLong, ooShort float64
	for i := 0; i < b.N; i++ {
		f5 := c.RunFig5()
		ooShort = f5.Points[0].UBOO
		ocLong = f5.Points[len(f5.Points)-1].SpeedupOC
	}
	b.ReportMetric(ocLong, "OC@5000iters")
	b.ReportMetric(ooShort, "OO@10iters")
}

// BenchmarkStage1Gate regenerates the stage-1 accuracy report (§V-D text).
// Reported metric: worst per-application gate accuracy.
func BenchmarkStage1Gate(b *testing.B) {
	c := experimentContext(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rep, err := c.RunStage1()
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, r := range rep.Rows {
			if r.Runs > 0 && r.GateAccuracy < worst {
				worst = r.GateAccuracy
			}
		}
	}
	b.ReportMetric(worst*100, "worst-gate-acc-%")
}

// BenchmarkTable6AppSpeedup regenerates Table VI: whole-application
// speedups. Reported metrics: geometric-mean OC speedup across the four
// apps, and the same for the OO upper bound.
func BenchmarkTable6AppSpeedup(b *testing.B) {
	c := experimentContext(b)
	var oc, oo float64
	for i := 0; i < b.N; i++ {
		t6, err := c.RunTable6()
		if err != nil {
			b.Fatal(err)
		}
		oc, oo = 1, 1
		for _, r := range t6.Rows {
			oc *= r.SpeedupOC
			oo *= r.UBOO
		}
		n := float64(len(t6.Rows))
		oc = pow(oc, 1/n)
		oo = pow(oo, 1/n)
	}
	b.ReportMetric(oc, "SpeedupOC")
	b.ReportMetric(oo, "UB_OO")
}

// BenchmarkTable7FormatDistribution regenerates Table VII. Reported metric:
// total conversions the OC scheme performed across all apps.
func BenchmarkTable7FormatDistribution(b *testing.B) {
	c := experimentContext(b)
	var conversions float64
	for i := 0; i < b.N; i++ {
		t7, err := c.RunTable7()
		if err != nil {
			b.Fatal(err)
		}
		conversions = 0
		for _, app := range t7.Apps {
			for f, n := range t7.OC[app] {
				if f != sparse.FmtCSR {
					conversions += float64(n)
				}
			}
		}
	}
	b.ReportMetric(conversions, "OC-conversions")
}

// BenchmarkFig6OCHistogram regenerates Figure 6. Reported metric: worst
// per-run OC speedup (the paper's point is that this stays near 1).
func BenchmarkFig6OCHistogram(b *testing.B) {
	c := experimentContext(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		h, err := c.RunFig6()
		if err != nil {
			b.Fatal(err)
		}
		worst = h.Minimum
	}
	b.ReportMetric(worst, "worst-speedup")
}

// BenchmarkTable8CaseStudies regenerates Table VIII. Reported metric: the
// best per-matrix OC speedup among the case studies.
func BenchmarkTable8CaseStudies(b *testing.B) {
	c := experimentContext(b)
	var best float64
	for i := 0; i < b.N; i++ {
		t8, err := c.RunTable8()
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range t8.Rows {
			if r.SpeedupOC > best {
				best = r.SpeedupOC
			}
		}
	}
	b.ReportMetric(best, "best-case-speedup")
}

// BenchmarkPredictionOverhead regenerates the §V-D overhead report AND
// measures the real feature-extraction cost of this machine's
// implementation relative to one parallel CSR SpMV. Reported metric:
// measured extraction cost in SpMV-equivalents (paper band: 2x-4x).
func BenchmarkPredictionOverhead(b *testing.B) {
	c := experimentContext(b)
	rep := c.RunOverhead()
	b.ReportMetric(rep.FeatureMedian, "model-feat-xSpMV")

	// Real measurement on a mid-size matrix.
	a, err := BandedMatrix(20000, 7, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := a.Dims()
	x := make([]float64, cols)
	y := make([]float64, rows)
	oracle := timing.NewMeasuredOracle(timing.DefaultMeasureOptions())
	spmvT := oracle.Costs(a).CSR
	featT := oracle.FeatureTime(a)
	if spmvT > 0 {
		b.ReportMetric(featT/spmvT, "real-feat-xSpMV")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.Extract(a)
	}
	_ = x
	_ = y
}

func pow(x, p float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, p)
}

// ---------------------------------------------------------------------------
// Kernel benchmarks: the substrate the experiments run on.

// benchMats caches the kernel benches' matrices, the crossover audit's panel
// classes (experiments.Panel) keyed by class name. BenchmarkSpMV and
// BenchmarkConvert time every implemented format's kernel and conversion on
// them: per-kernel numbers, and the only panel timing of the study-only
// formats. Which formats the selector may pick is `ocsel audit`'s table
// (DESIGN.md §19), priced through the oracle call that labels the training
// data.
var (
	benchMatOnce sync.Once
	benchMats    map[string]*sparse.CSR
)

func kernelMatrices(b *testing.B) map[string]*sparse.CSR {
	b.Helper()
	benchMatOnce.Do(func() {
		benchMats = map[string]*sparse.CSR{}
		for _, s := range experiments.Panel() {
			if m, err := matgen.Generate(s); err == nil {
				benchMats[s.Name] = m
			}
		}
	})
	return benchMats
}

// BenchmarkSpMV measures the parallel SpMV kernel of every implemented
// format on every structural family. Formats the default limits refuse for a
// matrix are skipped, exactly as the selector skips them.
func BenchmarkSpMV(b *testing.B) {
	for name, a := range kernelMatrices(b) {
		for _, f := range sparse.Implemented {
			m, err := sparse.ConvertFromCSR(a, f, sparse.DefaultLimits)
			if err != nil {
				continue
			}
			rows, cols := m.Dims()
			x := make([]float64, cols)
			for i := range x {
				x[i] = 1
			}
			y := make([]float64, rows)
			b.Run(name+"/"+f.String(), func(b *testing.B) {
				b.SetBytes(m.Bytes())
				for i := 0; i < b.N; i++ {
					m.SpMVParallel(y, x)
				}
			})
		}
	}
}

// BenchmarkConvert measures the CSR->format conversions (the overhead this
// whole paper is about).
func BenchmarkConvert(b *testing.B) {
	for name, a := range kernelMatrices(b) {
		for _, f := range sparse.Implemented[1:] {
			if _, err := sparse.ConvertFromCSR(a, f, sparse.DefaultLimits); err != nil {
				continue
			}
			b.Run(name+"/"+f.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sparse.ConvertFromCSR(a, f, sparse.DefaultLimits); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConvertCorpus prices the measured menu's conversions at training
// size — the 96-entry, seed-42, 500-6000 corpus every predictor bundle is
// fitted on, where allocation and per-pass fixed costs weigh most. One op
// converts every corpus matrix the format accepts; spmv_equiv divides that
// by one parallel CSR SpMV over the same matrices, the unit the selector's
// conversion labels are in.
func BenchmarkConvertCorpus(b *testing.B) {
	corpus, err := matgen.Corpus(matgen.CorpusConfig{Count: 96, Seed: 42, MinSize: 500, MaxSize: 6000})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range sparse.MeasuredMenu[1:] {
		var mats []*sparse.CSR
		for _, e := range corpus {
			if sparse.CanConvert(e.Matrix, f, sparse.DefaultLimits) {
				mats = append(mats, e.Matrix)
			}
		}
		convertAll := func() {
			for _, a := range mats {
				if _, err := sparse.ConvertFromCSR(a, f, sparse.DefaultLimits); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(f.String(), func(b *testing.B) {
			csrS := csrSpMVPass(mats)
			convertAll()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convertAll()
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perOp/csrS, "spmv_equiv")
			b.ReportMetric(float64(len(mats)), "matrices")
		})
	}
}

// csrSpMVPass is the median of seven timed passes of one parallel CSR SpMV
// over each matrix, after a warm-up pass.
func csrSpMVPass(mats []*sparse.CSR) float64 {
	xs := make([][]float64, len(mats))
	ys := make([][]float64, len(mats))
	for i, a := range mats {
		rows, cols := a.Dims()
		xs[i], ys[i] = make([]float64, cols), make([]float64, rows)
		for j := range xs[i] {
			xs[i][j] = 1
		}
	}
	pass := func() {
		for i, a := range mats {
			a.SpMVParallel(ys[i], xs[i])
		}
	}
	pass()
	times := make([]float64, 7)
	for r := range times {
		start := time.Now()
		pass()
		times[r] = time.Since(start).Seconds()
	}
	slices.Sort(times)
	return times[len(times)/2]
}

// BenchmarkSpMM measures the multi-vector product against k separate SpMV
// calls (the block-Krylov optimization).
func BenchmarkSpMM(b *testing.B) {
	a := kernelMatrices(b)["random"]
	if a == nil {
		b.Skip("no random kernel matrix")
	}
	rows, cols := a.Dims()
	const k = 8
	x := make([]float64, cols*k)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows*k)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.SpMMParallel(y, x, k)
		}
	})
	xc := make([]float64, cols)
	yc := make([]float64, rows)
	b.Run("k-spmv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := 0; c < k; c++ {
				a.SpMVParallel(yc, xc)
			}
		}
	})
}

// BenchmarkIngest prices bringing a matrix in — T_ingest, the cost no
// selector decision can avoid — per nonzero, next to the CSR SpMV it precedes:
//
//   - generate/<family>: matgen.Generate end to end (draws, triplets, assembly),
//     with the matrix's parallel CSR SpMV and their ratio as extra metrics;
//   - assemble/<order>: sparse.CSRFromTriplets alone on 2M prepared triplets,
//     in the input orders the generators and real files produce;
//   - mmio-read, mmio-write: Matrix Market text, the registration wire format.
func BenchmarkIngest(b *testing.B) {
	perNNZ := func(b *testing.B, nnz int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/nnz")
	}
	for _, fam := range matgen.AllFamilies {
		spec := matgen.Spec{Name: fam.String(), Family: fam, Size: 200_000, Degree: 10, Seed: 9}
		b.Run("generate/"+fam.String(), func(b *testing.B) {
			var a *sparse.CSR
			for i := 0; i < b.N; i++ {
				var err error
				if a, err = matgen.Generate(spec); err != nil {
					b.Fatal(err)
				}
			}
			perNNZ(b, a.NNZ())
			gen := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			rows, cols := a.Dims()
			x, y := make([]float64, cols), make([]float64, rows)
			for i := range x {
				x[i] = 1
			}
			spmv := math.Inf(1)
			for r := 0; r < 7; r++ {
				t0 := time.Now()
				a.SpMVParallel(y, x)
				spmv = math.Min(spmv, float64(time.Since(t0).Nanoseconds()))
			}
			b.ReportMetric(spmv/float64(a.NNZ()), "spmv-ns/nnz")
			b.ReportMetric(gen/spmv, "spmv-equiv")
		})
	}

	// 200k x 200k, 10 a row, as triplets in four orders.
	const n, deg = 200_000, 10
	rng := rand.New(rand.NewSource(9))
	type triplets struct {
		ri, ci []int32
		v      []float64
	}
	add := func(t *triplets, i, j int) {
		t.ri, t.ci, t.v = append(t.ri, int32(i)), append(t.ci, int32(j)), append(t.v, rng.Float64())
	}
	var sorted, diagonal, unsorted, dups triplets
	for i := 0; i < n; i++ {
		base := rng.Intn(n - 100*deg)
		for d := 0; d < deg; d++ {
			add(&sorted, i, base+100*d) // row-major, each row ascending
			add(&unsorted, i, rng.Intn(n))
			add(&dups, rng.Intn(n), rng.Intn(n)&^0x3ff) // any order, ~10 hits per coordinate
		}
	}
	for d := 0; d < deg; d++ { // diagonal by diagonal, as Banded emits
		for i := 0; i < n-7*d; i++ {
			add(&diagonal, i, i+7*d)
		}
	}
	for _, c := range []struct {
		name string
		t    *triplets
	}{{"row-major-sorted", &sorted}, {"diagonal-major", &diagonal}, {"row-major-unsorted", &unsorted}, {"scattered-duplicates", &dups}} {
		b.Run("assemble/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparse.CSRFromTriplets(n, n, c.t.ri, c.t.ci, c.t.v); err != nil {
					b.Fatal(err)
				}
			}
			perNNZ(b, len(c.t.v))
		})
	}

	mm, err := matgen.UniformRows(30_000, 30_000, 12, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	b.Run("mmio-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			text.Reset()
			if err := mmio.Write(&text, mm); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(text.Len()))
		perNNZ(b, mm.NNZ())
	})
	if text.Len() == 0 { // -bench selected mmio-read alone
		if err := mmio.Write(&text, mm); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("mmio-read", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := mmio.Read(bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		perNNZ(b, mm.NNZ())
	})
}

// BenchmarkFeatureExtract measures Table I feature extraction (the dominant
// component of T_predict).
func BenchmarkFeatureExtract(b *testing.B) {
	for name, a := range kernelMatrices(b) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				features.Extract(a)
			}
		})
	}
}

// BenchmarkGBTPredict measures one stage-2 model inference.
func BenchmarkGBTPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := &gbt.Dataset{}
	for i := 0; i < 300; i++ {
		row := make([]float64, features.NumFeatures)
		for j := range row {
			row[j] = rng.Float64()
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, rng.Float64())
	}
	m, err := gbt.Train(ds, gbt.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	x := ds.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

// BenchmarkARIMATripcount measures one stage-1 prediction (fit + forecast
// over a 15-point progress series).
func BenchmarkARIMATripcount(b *testing.B) {
	tc := arima.DefaultTripcount()
	progress := make([]float64, 15)
	r := 1.0
	for i := range progress {
		r *= 0.98
		progress[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.PredictTotal(progress, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptivePipeline measures the full stage-1 + stage-2 + convert
// pipeline the wrapper runs once per solve.
func BenchmarkAdaptivePipeline(b *testing.B) {
	a, err := BandedMatrix(20000, 7, 3)
	if err != nil {
		b.Fatal(err)
	}
	preds, err := trainBenchPredictors()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := NewAdaptive(a, 1e-8, preds)
		r := 1.0
		for it := 0; it < 16; it++ {
			r *= 0.995
			ad.RecordProgress(r)
		}
	}
}

var (
	benchPredsOnce sync.Once
	benchPreds     *Predictors
	benchPredsErr  error
)

func trainBenchPredictors() (*Predictors, error) {
	benchPredsOnce.Do(func() {
		c := benchCtx
		if c == nil {
			opt := experiments.DefaultOptions()
			opt.TrainCount = 64
			opt.EvalCount = 32
			opt.MinSize = 400
			opt.MaxSize = 3000
			opt.Params.NumRounds = 40
			var err error
			c, err = experiments.NewContext(opt, timing.NewModelOracle())
			if err != nil {
				benchPredsErr = err
				return
			}
		}
		benchPreds = c.Preds
	})
	return benchPreds, benchPredsErr
}
