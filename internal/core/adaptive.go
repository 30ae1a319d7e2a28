package core

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arima"
	"repro/internal/convcache"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// Stats records what the adaptive wrapper did during one run, for the
// experiment harness and for users who want to audit the selector.
type Stats struct {
	// Iterations is the number of progress indicators observed.
	Iterations int
	// SpMVCalls is the total number of SpMV calls the wrapper has served,
	// before and after the pipeline decision.
	SpMVCalls int64
	// SpMMCalls is the total number of blocked multi-vector products served.
	// They run on the CSR master whatever format SpMV has moved to, so they
	// neither feed nor follow the selector's decision.
	SpMMCalls int64
	// ConvCacheHit reports that stage 2 adopted a conversion published by an
	// earlier tenant instead of converting: ConvertSeconds stays 0 and the
	// publisher's bill appears in HiddenSeconds.
	ConvCacheHit bool
	// Stage1Ran reports whether the lazy tripcount prediction fired.
	Stage1Ran bool
	// PredictedTotal is stage 1's tripcount estimate (0 if stage 1 never ran).
	PredictedTotal int
	// Stage2Ran reports whether feature extraction + model inference ran.
	Stage2Ran bool
	// Decision is the stage-2 outcome (zero value if stage 2 never ran).
	Decision Decision
	// Converted reports whether the matrix was re-formatted.
	Converted bool
	// Format is the format SpMV is currently running on.
	Format sparse.Format
	// FeatureSeconds, PredictSeconds and ConvertSeconds are the measured
	// runtime overheads of stage 2 (the paper's T_predict and T_convert).
	FeatureSeconds float64
	PredictSeconds float64
	ConvertSeconds float64
	// PaidSeconds is the overhead the solver stalled for: stage 1 plus the
	// three stage-2 regions above, every one of which runs inline on the
	// goroutine that reported the K-th progress value. HiddenSeconds is the
	// conversion-cache credit: a conversion adopted from the cache credits
	// its publisher's conversion bill (machine work that happened once, for
	// another tenant) and nothing else is hidden, so once the pipeline has
	// run
	//
	//	PaidSeconds + HiddenSeconds = FeatureSeconds + PredictSeconds + ConvertSeconds + credit
	//
	// with HiddenSeconds = credit, 0 unless ConvCacheHit.
	PaidSeconds   float64
	HiddenSeconds float64
}

// Adaptive wraps a CSR matrix with the two-stage lazy-and-light scheme. The
// application calls SpMV as usual and reports its convergence progress
// indicator once per loop iteration via RecordProgress; after K iterations
// the wrapper may transparently convert the matrix to a better format.
//
// Adaptive is safe for concurrent use: one solver loop or many requests
// sharing a registry handle. One mutex serialises SpMV calls (each is
// goroutine-parallel inside already, and the timing samples rest on one
// SpMV running alone) and the selection pipeline, which therefore runs
// exactly once however many goroutines feed progress; Stats takes it too.
// SpMM, Format, TraceID, SetSpanParent and Dims do not: they touch only what
// never changes after construction, or an atomic.
type Adaptive struct {
	cfg      Config
	tol      float64
	parallel bool
	clock    timing.Clock

	csr *sparse.CSR
	// preds is the stage-2 bundle, fixed at construction (nil = stage 1
	// only).
	preds *Predictors
	// op is the matrix SpMV currently runs on. Installing a format is one
	// store (under mu, so no SpMV is mid-flight on the old one); Format is a
	// load.
	op atomic.Pointer[operator]

	// mu serialises SpMV and the pipeline and guards every field below it.
	mu       sync.Mutex
	progress []float64
	decided  bool
	stats    Stats

	// Self-measured SpMV cost, gathered until the pipeline decision: the
	// overhead-conscious gate needs to know what one SpMV costs here to
	// judge whether stage 2's own cost can be amortized.
	spmvSeconds float64
	spmvCalls   int

	// ledger is true while post-decision SpMV calls are still being timed to
	// maintain the decision trace's T_affected ledger.
	ledger bool

	// spanNotes buffers per-stage timings until the decision trace is
	// journaled, when they flush to Config.SpanSink tagged with the
	// decision ID.
	spanNotes []spanNote

	// spmmCalls counts blocked products begun and spmmInFlight those running
	// right now. SpMM touches nothing else of the wrapper; SpMV reads the pair
	// to drop a timing sample that shared the cores with a blocked product.
	spmmCalls    atomic.Int64
	spmmInFlight atomic.Int32

	// traceID addresses this wrapper's obs.DecisionTrace once the pipeline
	// has run with a journal attached; 0 until then.
	traceID atomic.Uint64

	// spanParent is the request-scoped parent for the spans the pipeline
	// emits (SetSpanParent); nil or the zero value means "no active trace"
	// and suppresses emission.
	spanParent atomic.Pointer[obs.SpanContext]
}

// operator is the matrix SpMV runs on, published whole behind
// Adaptive.op.
type operator struct{ sparse.Matrix }

// spanNote is one buffered stage timing awaiting flush to the span sink.
type spanNote struct {
	name  string
	start time.Time
	secs  float64
	attrs [][2]string
}

// NewAdaptive wraps a matrix in its default CSR format. tol is the
// convergence tolerance of the surrounding loop (the stage-1 predictor
// forecasts when the progress indicator will cross it). parallel selects
// the goroutine-parallel kernels.
func NewAdaptive(a *sparse.CSR, tol float64, preds *Predictors, cfg Config, parallel bool) *Adaptive {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.TH <= 0 {
		cfg.TH = DefaultConfig().TH
	}
	if cfg.Lim == (sparse.Limits{}) {
		cfg.Lim = sparse.DefaultLimits
	}
	clock := cfg.Clock
	if clock == nil {
		clock = timing.WallClock{}
	}
	ad := &Adaptive{
		cfg:      cfg,
		preds:    preds,
		tol:      tol,
		parallel: parallel,
		clock:    clock,
		csr:      a,
	}
	ad.op.Store(&operator{a})
	return ad
}

// Dims implements the solver Operator contract.
func (ad *Adaptive) Dims() (int, int) { return ad.csr.Dims() }

// SpMV computes y = A*x on whichever format the matrix currently has.
// Until the pipeline decision the calls are timed (two clock observations,
// nanoseconds of overhead on the wall clock) so the gate can reason in SpMV
// units; once a decision trace exists, timing continues so its T_affected
// ledger can compare the measured payoff against the model's promise.
func (ad *Adaptive) SpMV(y, x []float64) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	ad.stats.SpMVCalls++
	if ad.decided && !ad.ledger {
		ad.run(y, x)
		return
	}
	// A sample is one SpMV alone on the handle: not one that found a blocked
	// product in flight, nor one that a blocked product joined before it ended.
	began, shared := ad.spmmCalls.Load(), ad.spmmInFlight.Load() > 0
	start := ad.clock.Now()
	ad.run(y, x)
	elapsed := timing.Since(ad.clock, start).Seconds()
	if shared || ad.spmmCalls.Load() != began {
		return
	}
	if !ad.decided {
		ad.spmvSeconds += elapsed
		ad.spmvCalls++
		return
	}
	// Post-decision: stream the observation into the journal's ledger.
	if !ad.cfg.Journal.Update(ad.traceID.Load(), func(t *obs.DecisionTrace) {
		t.Ledger.RecordPost(elapsed)
	}) {
		ad.ledger = false // trace evicted: stop paying for timing
	}
}

// run executes one SpMV on the current format.
func (ad *Adaptive) run(y, x []float64) {
	op := ad.op.Load()
	if ad.parallel {
		op.SpMVParallel(y, x)
	} else {
		op.SpMV(y, x)
	}
}

// SpMM computes the blocked product Y = A*X with k row-major right-hand
// sides, on the CSR master whatever format SpMV currently runs on: the
// row-panel kernel has no gather for a format to improve on, and for k >= 2
// one pass of it costs less than column-at-a-time SpMV on any format. The
// reply is therefore independent of selector state — the same bits before
// and after a format swap — and the call touches two atomic counters and
// nothing else of the wrapper, so it takes no lock and blocks no one.
func (ad *Adaptive) SpMM(y, x []float64, k int) {
	ad.spmmInFlight.Add(1) // before spmmCalls: see the sample rule in SpMV
	ad.spmmCalls.Add(1)
	defer ad.spmmInFlight.Add(-1)
	if ad.parallel {
		ad.csr.SpMMParallel(y, x, k)
	} else {
		ad.csr.SpMM(y, x, k)
	}
}

// RecordProgress feeds one loop iteration's progress indicator (e.g. the
// residual norm a solver computes anyway). After the K-th call the
// lazy-and-light pipeline runs exactly once, across all goroutines, with the
// lock held, so concurrent SpMV callers see the format change atomically.
func (ad *Adaptive) RecordProgress(v float64) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	ad.progress = append(ad.progress, v)
	ad.stats.Iterations = len(ad.progress)
	if ad.decided || len(ad.progress) < ad.cfg.K {
		return
	}
	ad.decided = true
	ad.runPipeline()
}

// runPipeline executes stage 1 and, if the gate opens, stage 2, inline on
// the goroutine that reported the K-th progress value. When a journal is
// configured it also assembles the decision trace: every gate inequality is
// recorded with both of its sides, so a trace shows how close each call
// was, not just its verdict.
func (ad *Adaptive) runPipeline() {
	tr, remaining, ok := ad.runStage1()
	if ok {
		ad.applyStage2(&tr, ad.runStage2(remaining))
	}
	ad.journalTrace(tr)
}

// runStage1 runs the lazy tripcount prediction and the gates in front of
// stage 2: a handful of scalar ops, gated on the self-measured SpMV
// baseline. calls is the forecast of SpMV calls still to come; ok reports
// whether stage 2 should run.
func (ad *Adaptive) runStage1() (tr obs.DecisionTrace, calls float64, ok bool) {
	start := ad.clock.Now()
	total, err := arima.DefaultTripcount().PredictTotal(ad.progress, ad.tol)
	stage1 := timing.Since(ad.clock, start).Seconds()
	ad.stats.PredictSeconds += stage1
	ad.stats.PaidSeconds += stage1
	ad.stats.Stage1Ran = true
	ad.noteSpan("selector.stage1", start, stage1)
	tr = obs.DecisionTrace{
		Label:      ad.cfg.TraceLabel,
		At:         start,
		Iterations: len(ad.progress),
		Chosen:     sparse.FmtCSR.String(),
	}
	if err != nil {
		tr.Stage1Err = err.Error()
		return tr, 0, false
	}
	ad.stats.PredictedTotal = total
	tr.PredictedTotal = total
	remaining := total - len(ad.progress)
	// The forecast is in iterations, and so is the paper's TH; everything
	// past it — the overhead gate and stage 2's cost model — counts SpMV
	// calls, which a loop may issue more than one of per iteration
	// (BiCGSTAB two, restarted GMRES one and a bit). The wrapper has seen
	// both counts, so their ratio converts; a loop that reports progress
	// without calling, or 1:1, is left exactly as forecast.
	calls = float64(remaining)
	if perIter := float64(ad.stats.SpMVCalls) / float64(len(ad.progress)); perIter > 1 {
		calls *= perIter
	}
	tr.Gates = append(tr.Gates, obs.GateCheck{
		Name: "remaining>=TH", LHS: float64(remaining), RHS: float64(ad.cfg.TH),
		Passed: remaining >= ad.cfg.TH,
	})
	if remaining < ad.cfg.TH {
		return tr, calls, false // loop predicted too short: conversion can't pay off
	}
	if ad.preds == nil {
		return tr, calls, false
	}
	// Overhead-conscious gate on stage 2 itself: estimate the feature
	// extraction cost in units of this run's self-measured SpMV time and
	// require enough remaining calls to plausibly amortize it.
	if ad.cfg.GateOverheadFactor > 0 && ad.cfg.FeatureSecondsPerNNZ > 0 && ad.spmvCalls > 0 {
		avgSpMV := ad.spmvSeconds / float64(ad.spmvCalls)
		if avgSpMV > 0 {
			est := ad.cfg.PredictFixedSeconds + ad.cfg.FeatureSecondsPerNNZ*float64(ad.csr.NNZ())
			overheadNorm := est / avgSpMV
			threshold := ad.cfg.GateOverheadFactor * overheadNorm
			tr.Gates = append(tr.Gates, obs.GateCheck{
				Name: "remaining>=gate*overhead", LHS: calls, RHS: threshold,
				Passed: calls >= threshold,
			})
			if calls < threshold {
				return tr, calls, false
			}
		}
	}
	return tr, calls, true
}

// stage2Result is everything one stage-2 run produced. A zero region start
// means that region never ran.
type stage2Result struct {
	d    Decision
	m    sparse.Matrix // operator to install; nil when staying on CSR or conversion failed
	fvec []float64     // Table I vector for the journal, when one is kept

	convertErr string
	// Measured regions in seconds — features, model inference + argmin,
	// conversion-cache lookup, conversion — and when each opened.
	feature, predict, lookup, convert         float64
	featureAt, predictAt, lookupAt, convertAt time.Time
	// Conversion-cache outcome: on a hit m was adopted from the shared cache
	// (no conversion ran here) and credit carries the publisher's bill.
	cacheHit  bool
	credit    float64
	published bool
}

// runStage2 is the one stage-2 body: features → decide → cache lookup →
// convert → publish, each region timed with the wrapper's clock.
func (ad *Adaptive) runStage2(remaining float64) (r stage2Result) {
	csr, preds, cfg, clock := ad.csr, ad.preds, &ad.cfg, ad.clock
	r.featureAt = clock.Now()
	fs := features.Extract(csr)
	// The block count is BSR's validity input and nothing else: a bundle
	// with no BSR model (every measured one) skips the count.
	bsrBlocks := 0
	if preds.ConvTime[sparse.FmtBSR] != nil {
		bsrBlocks = features.CountBlocks(csr, cfg.Lim.BSRBlockSize)
	}
	r.feature = timing.Since(clock, r.featureAt).Seconds()
	cached := cachedFormats(cfg)
	r.predictAt = clock.Now()
	r.d = preds.DecideQuery(fs, Query{
		BSRBlocks: bsrBlocks, Remaining: remaining,
		Cached: cached, Lim: cfg.Lim, Margin: cfg.Margin,
	})
	r.predict = timing.Since(clock, r.predictAt).Seconds()
	if cfg.Journal != nil {
		r.fvec = fs.Vector()
	}
	if r.d.Format == sparse.FmtCSR {
		return r
	}
	// Conversion-cache consult: an earlier tenant may have already paid for
	// this exact (structure, values, format) conversion. A hit adopts the
	// shared matrix — zero conversion work on this handle.
	if cacheUsable(cfg) {
		r.lookupAt = clock.Now()
		e, hit := cfg.ConvCache.Lookup(cacheKeyFor(cfg, r.d.Format))
		r.lookup = timing.Since(clock, r.lookupAt).Seconds()
		if hit {
			r.cacheHit, r.credit, r.m = true, e.ConvertSeconds, e.M
			return r
		}
	}
	r.convertAt = clock.Now()
	m, err := sparse.ConvertFromCSR(csr, r.d.Format, cfg.Lim)
	r.convert = timing.Since(clock, r.convertAt).Seconds()
	if err != nil {
		// The validity pre-check should prevent this; the wrapper stays on CSR.
		r.convertErr = err.Error()
		return r
	}
	if cacheUsable(cfg) {
		cfg.ConvCache.Publish(cacheKeyFor(cfg, r.d.Format), convcache.Entry{
			M: m, ConvertSeconds: r.convert, NNZ: m.NNZ(),
		})
		r.published = true
	}
	r.m = m
	return r
}

// applyStage2 folds a stage-2 run into the wrapper, under mu: overhead
// accounting, the buffered stage spans, the format swap and the trace with
// its T_affected ledger. Every second of the run stalled the solver and is
// paid; a cache hit additionally credits the publisher's conversion bill as
// hidden time, so the ledger stays honest about machine work that once
// happened.
func (ad *Adaptive) applyStage2(tr *obs.DecisionTrace, r stage2Result) {
	ad.stats.FeatureSeconds = r.feature
	ad.stats.PredictSeconds += r.predict + r.lookup
	ad.stats.ConvertSeconds = r.convert
	ad.stats.PaidSeconds = ad.overhead()
	if r.cacheHit {
		ad.stats.ConvCacheHit = true
		ad.stats.HiddenSeconds += r.credit
		tr.ConvCacheHit = true
	}
	format := [2]string{"format", r.d.Format.String()}
	ad.noteSpan("selector.features", r.featureAt, r.feature)
	ad.noteSpan("selector.decide", r.predictAt, r.predict, format)
	switch {
	case r.cacheHit:
		ad.noteSpan("convcache.hit", r.lookupAt, r.lookup, format,
			[2]string{"hidden_seconds", strconv.FormatFloat(r.credit, 'g', -1, 64)})
	case !r.lookupAt.IsZero():
		ad.noteSpan("convcache.miss", r.lookupAt, r.lookup, format)
	}
	if !r.convertAt.IsZero() {
		ad.noteSpan("selector.convert", r.convertAt, r.convert, format)
	}
	if r.published {
		ad.noteSpan("convcache.publish", r.convertAt, r.convert, format)
	}
	ad.recordStage2(tr, r)
	switch {
	case r.m != nil:
		ad.op.Store(&operator{r.m})
		ad.stats.Converted = true
		tr.Converted = true
	case r.convertErr != "":
		tr.ConvertErr = r.convertErr
		tr.Chosen = sparse.FmtCSR.String()
	}
	ad.finishTrace(tr, r.d)
}

// recordStage2 folds a stage-2 decision into the stats and the trace,
// including the margin inequality the argmin applied: the cheapest non-CSR
// candidate had to undercut staying — the decision's own CSR cost — by
// Margin to win. The feature vector the decision consumed is recorded so a
// trace explains its decision without re-extracting the matrix.
func (ad *Adaptive) recordStage2(tr *obs.DecisionTrace, r stage2Result) {
	d := r.d
	ad.stats.Stage2Ran = true
	ad.stats.Decision = d
	tr.Stage2Ran = true
	tr.Chosen = d.Format.String()
	if ad.cfg.Journal == nil {
		return
	}
	tr.Features = r.fvec
	tr.PredictedCostByFormat = formatKeyed(d.PredictedCost)
	tr.PredictedSpMVNormByFormat = formatKeyed(d.PredictedSpMV)
	tr.PredictedConvNormByFormat = formatKeyed(d.PredictedConv)
	if alt, ok := bestAlternative(d); ok {
		stay := d.PredictedCost[sparse.FmtCSR] * (1 - ad.cfg.Margin)
		tr.Gates = append(tr.Gates, obs.GateCheck{
			Name: "stay_cost*(1-margin)>=best_alt", LHS: stay, RHS: alt,
			Passed: d.Format != sparse.FmtCSR,
		})
	}
}

// journalTrace appends the finished trace to the journal, arms the
// post-decision SpMV timing that maintains its T_affected ledger (only
// traces whose stage 2 ran get one), and flushes the buffered stage spans
// to the span sink now that the decision ID they reference exists.
func (ad *Adaptive) journalTrace(tr obs.DecisionTrace) {
	if ad.cfg.Journal != nil {
		ad.traceID.Store(ad.cfg.Journal.Append(tr))
		ad.ledger = tr.Stage2Ran
	}
	ad.flushSpans(tr)
}

// noteSpan buffers one stage timing for flushSpans. A nil sink makes it
// free, so the pipeline calls it unconditionally.
func (ad *Adaptive) noteSpan(name string, start time.Time, secs float64, attrs ...[2]string) {
	if ad.cfg.SpanSink == nil {
		return
	}
	ad.spanNotes = append(ad.spanNotes, spanNote{name: name, start: start, secs: secs, attrs: attrs})
}

// flushSpans emits the buffered stage notes as spans under the current
// request parent. The conversion span additionally carries the trace's
// paid overhead, so its attributes agree with the ledger seeded by
// finishTrace.
func (ad *Adaptive) flushSpans(tr obs.DecisionTrace) {
	notes := ad.spanNotes
	ad.spanNotes = nil
	sink, parent := ad.cfg.SpanSink, ad.spanParent.Load()
	if sink == nil || len(notes) == 0 || parent == nil || parent.Trace.IsZero() {
		return
	}
	traceID := ad.traceID.Load()
	for _, n := range notes {
		sp := obs.Span{
			Trace:   parent.Trace,
			ID:      obs.NewSpanID(),
			Parent:  parent.Span,
			Name:    n.name,
			Service: "selector",
			Start:   n.start,
			Seconds: n.secs,
			Attrs:   make(map[string]string, len(n.attrs)+4),
		}
		if traceID != 0 {
			sp.Attrs["decision_id"] = strconv.FormatUint(traceID, 10)
		}
		if tr.Label != "" {
			sp.Attrs["label"] = tr.Label
		}
		for _, kv := range n.attrs {
			sp.Attrs[kv[0]] = kv[1]
		}
		if n.name == "selector.convert" {
			sp.Attrs["paid_seconds"] = strconv.FormatFloat(tr.PaidSeconds, 'g', -1, 64)
		}
		sink(sp)
	}
}

// SetSpanParent installs the request-scoped span context under which the
// pipeline's stage spans are emitted; the zero value clears it. Request
// handlers set it at admission so pipeline work triggered by their traffic is
// attributed to their trace. One atomic store: it waits for no one.
func (ad *Adaptive) SetSpanParent(sc obs.SpanContext) { ad.spanParent.Store(&sc) }

// finishTrace fills the trace's measured-overhead fields and seeds the
// ledger with the model-side quantities the payoff will be judged against.
// Only the paid share of the overhead enters the ledger's net balance; the
// hidden seconds (the conversion-cache credit) are reported but never
// charged.
func (ad *Adaptive) finishTrace(tr *obs.DecisionTrace, d Decision) {
	if ad.cfg.Journal == nil {
		return
	}
	tr.FeatureSeconds = ad.stats.FeatureSeconds
	tr.PredictSeconds = ad.stats.PredictSeconds
	tr.ConvertSeconds = ad.stats.ConvertSeconds
	tr.PaidSeconds = ad.stats.PaidSeconds
	tr.HiddenSeconds = ad.stats.HiddenSeconds
	var baseline float64
	if ad.spmvCalls > 0 {
		baseline = ad.spmvSeconds / float64(ad.spmvCalls)
	}
	// The format the wrapper actually runs on: the decision's pick, or CSR
	// when conversion failed.
	predictedNorm := 1.0
	if ad.stats.Converted {
		if v, ok := d.PredictedSpMV[d.Format]; ok {
			predictedNorm = v
		}
	}
	tr.Ledger.InitPredictions(baseline, predictedNorm,
		ad.stats.PaidSeconds, ad.stats.HiddenSeconds, ad.stats.Converted)
}

// overhead is OverheadSeconds for callers that hold mu.
func (ad *Adaptive) overhead() float64 {
	return ad.stats.FeatureSeconds + ad.stats.PredictSeconds + ad.stats.ConvertSeconds
}

// formatKeyed re-keys a per-format map by the formats' names for the
// JSON-facing trace.
func formatKeyed(m map[sparse.Format]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for f, v := range m {
		out[f.String()] = v
	}
	return out
}

// bestAlternative returns the cheapest predicted non-CSR cost, if any
// candidate survived validity checks.
func bestAlternative(d Decision) (float64, bool) {
	best, ok := 0.0, false
	for f, c := range d.PredictedCost {
		if f == sparse.FmtCSR {
			continue
		}
		if !ok || c < best {
			best, ok = c, true
		}
	}
	return best, ok
}

// Stats returns a copy of the run's bookkeeping.
func (ad *Adaptive) Stats() Stats {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	st := ad.stats
	st.SpMMCalls = ad.spmmCalls.Load()
	st.Format = ad.Format()
	return st
}

// Format returns the format SpMV currently runs on.
func (ad *Adaptive) Format() sparse.Format { return ad.op.Load().Format() }

// TraceID returns the journal ID of this wrapper's decision trace, with
// ok=false before the pipeline has run or when no journal is configured.
func (ad *Adaptive) TraceID() (uint64, bool) {
	id := ad.traceID.Load()
	return id, id != 0
}

// OverheadSeconds is the total measured selector overhead (T_predict +
// T_convert) of this run.
func (ad *Adaptive) OverheadSeconds() float64 {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return ad.overhead()
}
