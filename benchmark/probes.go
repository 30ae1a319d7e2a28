package main

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arima"
	"repro/internal/cluster"
	"repro/internal/convcache"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink float64

// timeMedian runs fn reps times and returns the median seconds per call.
func timeMedian(reps int, fn func()) float64 {
	t := make([]float64, reps)
	for i := range t {
		s := time.Now()
		fn()
		t[i] = time.Since(s).Seconds()
	}
	return median(t)
}

// timeMean is for calls too short to time one by one: n calls, one clock pair.
func timeMean(n int, fn func()) float64 {
	s := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(s).Seconds() / float64(n)
}

// splitRun runs body over [0,n) on nproc plain goroutines: the benchmark's
// own fan-out, so the triad is not measured through the layer it judges.
func splitRun(n, nproc int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		lo, hi := n*w/nproc, n*(w+1)/nproc
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// panelMatrix is one matrix of the kernel panel with its CSR SpMV time, the
// unit conversions are priced in.
type panelMatrix struct {
	a      *sparse.CSR
	x, y   []float64
	csrS   float64
	genS   float64
	family string
}

func newPanelMatrix(family string, build func(*rand.Rand) (*sparse.CSR, error), seed int64) (*panelMatrix, error) {
	t0 := time.Now()
	a, err := build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	p := &panelMatrix{a: a, family: family, genS: time.Since(t0).Seconds()}
	rows, cols := a.Dims()
	p.x, p.y = randVec(rand.New(rand.NewSource(seed+1)), cols), make([]float64, rows)
	a.SpMVParallel(p.y, p.x)
	p.csrS = timeMedian(9, func() { a.SpMVParallel(p.y, p.x) })
	return p, nil
}

// probeLayers runs the micro-probes: each times calls into one layer's public
// functions from outside. They run in every traced run, after the workload,
// so every workload's per-layer report carries the same panel.
func (b *bench) probeLayers(o *outcome) {
	l := o.layers
	scale, seed := b.cfg.scale, b.cfg.seed

	// Kernel panel: for each format, the first of {uniform 150k x 12, banded
	// 200k x 9, block 100k x 12} whose conversion the default limits accept.
	// Half the issue's sizes: the generators cost 0.6 us per nonzero and the
	// probes ride every traced run.
	builders := []struct {
		family string
		build  func(*rand.Rand) (*sparse.CSR, error)
	}{
		{"uniform", func(r *rand.Rand) (*sparse.CSR, error) {
			n := scaled(150_000, scale)
			return matgen.UniformRows(n, n, 12, r)
		}},
		{"banded", func(r *rand.Rand) (*sparse.CSR, error) { return matgen.Banded(scaled(200_000, scale), 9, r) }},
		{"block", func(r *rand.Rand) (*sparse.CSR, error) { return matgen.Block(scaled(100_000, scale), 4, 12, r) }},
	}
	panel := make([]*panelMatrix, len(builders))
	get := func(i int) *panelMatrix {
		if panel[i] == nil {
			p, err := newPanelMatrix(builders[i].family, builders[i].build, seed+int64(i))
			if err != nil {
				return nil
			}
			panel[i] = p
		}
		return panel[i]
	}
	uni := get(0)
	if uni == nil {
		return
	}
	nnz := float64(uni.a.NNZ())
	rows, _ := uni.a.Dims()
	l.set("matgen.generate_ns_per_nnz", 1e9*uni.genS/nnz)
	l.set("sparse.spmv.csr.ns_per_nnz", 1e9*uni.csrS/nnz)
	serialS := timeMedian(5, func() { uni.a.SpMV(uni.y, uni.x) })
	l.set("sparse.spmv.csr.serial_ns_per_nnz", 1e9*serialS/nnz)
	l.set("parallel.spmv_speedup", serialS/uni.csrS)

	// The streaming triad at the CSR matrix's own footprint, same run: the
	// roofline the CSR kernel is judged against.
	tn := int(uni.a.Bytes() / 24)
	ta, tb, tc := make([]float64, tn), make([]float64, tn), make([]float64, tn)
	for i := range tb {
		tb[i], tc[i] = 1, 2
	}
	triad := func() {
		splitRun(tn, b.nproc, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ta[i] = tb[i] + 3*tc[i]
			}
		})
	}
	triad()
	triadGBps := 24 * float64(tn) / timeMedian(7, triad) / 1e9
	csrGBps := (12*nnz + 20*float64(rows)) / uni.csrS / 1e9
	l.set("sparse.triad_gbps", triadGBps)
	l.set("sparse.spmv.csr.gbps_computed", csrGBps)
	l.set("sparse.spmv.csr.roofline_frac", csrGBps/triadGBps)
	dot := func() { sink += vec.DotParallel(tb, tc) }
	dot()
	l.set("vec.dot_gbps", 16*float64(tn)/timeMedian(7, dot)/1e9)
	axpy := func() { vec.AxpyParallel(0.5, tb, ta) }
	axpy()
	l.set("vec.axpy_gbps", 24*float64(tn)/timeMedian(7, axpy)/1e9)
	ta, tb, tc = nil, nil, nil

	for _, name := range kernelFormats[1:] {
		for i := range builders {
			p := get(i)
			if p == nil {
				continue
			}
			m, convS, spmvS, ok := formatCost(p.a, name, p.y, p.x, 7)
			if !ok {
				continue
			}
			o.Detail["panel."+name] = p.family
			l.set("sparse.convert."+name+".spmv_equiv", convS/p.csrS)
			l.set("sparse.spmv."+name+".ns_per_nnz", 1e9*spmvS/float64(p.a.NNZ()))
			if slices.Contains(spmmFormats, name) {
				l.set("sparse.spmm."+name+".k4_speedup_vs_cols", spmmSpeedup(m, p))
			}
			break
		}
	}
	l.set("sparse.spmm.csr.k4_speedup_vs_cols", spmmSpeedup(uni.a, uni))
	l.set("sparse.fingerprint_ns_per_nnz", 1e9*timeMedian(3, func() {
		sink += float64(len(uni.a.Fingerprint()) + len(uni.a.ValueDigest()))
	})/nnz)

	// Selector stages, each from outside on the panel's uniform matrix.
	var fs *features.Set
	featS := timeMedian(3, func() { fs = features.Extract(uni.a) })
	l.set("features.extract_ns_per_nnz", 1e9*featS/nnz)
	l.set("features.extract_spmv_equiv", featS/uni.csrS)
	progress := make([]float64, 15)
	for i := range progress {
		progress[i] = 100 * math.Pow(0.93, float64(i)) * (1 + 0.01*float64(i%3))
	}
	tc15 := arima.DefaultTripcount()
	l.set("arima.tripcount_us", 1e6*timeMean(200, func() {
		n, _ := tc15.PredictTotal(progress, 1e-8)
		sink += float64(n)
	}))
	if b.preds != nil {
		fv := fs.Vector()
		for _, m := range b.preds.SpMVTime {
			l.set("gbt.predict_us", 1e6*timeMean(2000, func() { sink += m.Predict(fv) }))
			break
		}
		blocks := features.CountBlocks(uni.a, sparse.DefaultLimits.BSRBlockSize)
		cfg := core.DefaultConfig()
		l.set("core.decide_us", 1e6*timeMean(200, func() {
			sink += b.preds.Decide(fs, blocks, 200, cfg.Lim, cfg.Margin).Remaining
		}))
	}

	// What the wrappers cost per call on a matrix small enough that the
	// kernel does not hide them.
	small, err := matgen.UniformRows(2000, 2000, 8, rand.New(rand.NewSource(seed)))
	if err == nil {
		sx, sy := randVec(rand.New(rand.NewSource(seed)), 2000), make([]float64, 2000)
		ad := core.NewAdaptive(small, 1e-8, b.preds, core.DefaultConfig(), true)
		sa := core.NewSafeAdaptive(core.NewAdaptive(small, 1e-8, b.preds, core.DefaultConfig(), true))
		// Interleaved blocks, and the fastest block of each: the difference
		// of two ~10 us calls drowns in anything less robust.
		raw, adS, saS := math.Inf(1), math.Inf(1), math.Inf(1)
		for r := 0; r < max(int(15*scale), 3); r++ {
			raw = min(raw, timeMean(1000, func() { small.SpMVParallel(sy, sx) }))
			adS = min(adS, timeMean(1000, func() { ad.SpMV(sy, sx) }))
			saS = min(saS, timeMean(1000, func() { sa.SpMV(sy, sx) }))
		}
		l.set("core.adaptive_overhead_ns", 1e9*(adS-raw))
		l.set("core.safe_overhead_ns", 1e9*(saS-raw))
	}
	l.set("parallel.dispatch_us", 1e6*timeMean(5000, func() {
		parallel.Default().ForThreshold(b.nproc*64, 1, func(lo, hi int) {})
	}))

	// Matrix Market text, the registration wire format.
	mm, err := matgen.UniformRows(scaled(30_000, scale), scaled(30_000, scale), 12, rand.New(rand.NewSource(seed)))
	if err == nil {
		var buf bytes.Buffer
		wS := timeMedian(3, func() {
			buf.Reset()
			err = mmio.Write(&buf, mm)
		})
		mb := float64(buf.Len()) / 1e6
		if err == nil {
			l.set("mmio.write_mb_per_s", mb/wS)
			text := buf.Bytes()
			l.set("mmio.read_mb_per_s", mb/timeMedian(3, func() { _, err = mmio.Read(bytes.NewReader(text)) }))
		}
	}

	// Conversion cache, router placement and telemetry primitives.
	cc := convcache.New(0)
	keys := make([]convcache.Key, 256)
	for i := range keys {
		keys[i] = convcache.Key{Fingerprint: strconv.Itoa(i), Values: "v", Format: sparse.FmtELL}
	}
	i := 0
	l.set("convcache.publish_ns", 1e9*timeMean(len(keys), func() {
		cc.Publish(keys[i%len(keys)], convcache.Entry{M: small, NNZ: 1})
		i++
	}))
	l.set("convcache.lookup_ns", 1e9*timeMean(20000, func() {
		_, ok := cc.Lookup(keys[i%len(keys)])
		if ok {
			sink++
		}
		i++
	}))
	l.set("cluster.partition_ms", 1e3*timeMedian(3, func() { _, err = cluster.PartitionRows(uni.a, 2) }))
	ring := cluster.NewRing(0)
	ring.Add("http://shard-a")
	ring.Add("http://shard-b")
	l.set("cluster.ring_lookup_ns", 1e9*timeMean(20000, func() {
		sink += float64(len(ring.Lookup(keys[i%len(keys)].Fingerprint)))
		i++
	}))
	journal := obs.NewJournal(0)
	l.set("obs.journal_append_ns", 1e9*timeMean(20000, func() { sink += float64(journal.Append(obs.DecisionTrace{})) }))
	hist := obs.NewLatencyHistogram()
	l.set("obs.hist_observe_ns", 1e9*timeMean(100000, func() { hist.Observe(0.0123) }))
	tracer := obs.NewTracer("bench", 0)
	sp := obs.Span{Trace: obs.NewTraceID(), ID: obs.NewSpanID(), Name: "probe", Start: time.Now(), Seconds: 0.001}
	l.set("obs.span_record_ns", 1e9*timeMean(20000, func() {
		if i++; i%256 == 0 {
			sp.Trace = obs.NewTraceID()
		}
		tracer.Record(sp)
	}))

	// The benchmark's own recorder: spans it recorded times what one costs,
	// over the time the workload's roots cover. Computed, not measured by
	// differencing two noisy runs.
	probe := newRecorder()
	now := time.Now()
	perSpan := timeMean(20000, func() { probe.add("x", "", 0, now, now) })
	var rootS float64
	spans := o.rec.snapshot()
	for _, s := range spans {
		if s.Parent == 0 {
			rootS += float64(s.End-s.Start) / 1e9
		}
	}
	if rootS > 0 {
		l.set("bench.trace_overhead_share", perSpan*float64(len(spans))/rootS)
	}
}

// formatCost converts a to the named format under the default limits and
// times the conversion (once: it is the cold cost a selector pays) and the
// parallel SpMV (median of reps). ok is false when the limits refuse.
func formatCost(a *sparse.CSR, name string, y, x []float64, reps int) (m sparse.Matrix, convS, spmvS float64, ok bool) {
	f, err := sparse.ParseFormat(strings.ToUpper(name))
	if err != nil || !sparse.CanConvert(a, f, sparse.DefaultLimits) {
		return nil, 0, 0, false
	}
	convS = timeMedian(1, func() { m, err = sparse.ConvertFromCSR(a, f, sparse.DefaultLimits) })
	if err != nil {
		return nil, 0, 0, false
	}
	m.SpMVParallel(y, x)
	return m, convS, timeMedian(reps, func() { m.SpMVParallel(y, x) }), true
}

// spmmSpeedup is four SpMVs over the blocked k = 4 product on one matrix.
func spmmSpeedup(m sparse.Matrix, p *panelMatrix) float64 {
	const k = 4
	rows, cols := p.a.Dims()
	xp, yp := make([]float64, cols*k), make([]float64, rows*k)
	for i := range xp {
		xp[i] = p.x[i/k]
	}
	blocked := func() { sparse.SpMMParallel(m, yp, xp, k) }
	blocked()
	blockedS := timeMedian(5, blocked)
	colsS := timeMedian(5, func() {
		for j := 0; j < k; j++ {
			m.SpMVParallel(p.y, p.x)
		}
	})
	return colsS / blockedS
}
