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
// experiment harness and for users who want to audit the selector: a view of
// the decision record (Trace) plus the call counters.
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
// exactly once however many goroutines feed progress; Stats takes it too,
// and so does Trace once there is a record to copy. SpMM, Format and Dims do
// not: they touch only what never changes after construction, or an atomic.
//
// The wrapper keeps one decision record (obs.DecisionTrace) from stage 1 on:
// every timed region of the pipeline is written there once, as a field and
// as a Stage, and when stage 2 ran every later SpMV folds into its ledger.
// Stats and Trace are views of it; what to do with the record — journal it,
// emit its spans — is the caller's business.
type Adaptive struct {
	cfg   Config
	tol   float64
	clock timing.Clock

	csr *sparse.CSR
	// preds is the stage-2 bundle, fixed at construction (nil = stage 1
	// only).
	preds *Predictors
	// op is the matrix SpMV currently runs on. Installing a format is one
	// store (under mu, so no SpMV is mid-flight on the old one); Format is a
	// load.
	op atomic.Pointer[operator]

	// decided is set, under mu, once the pipeline has run: from then on rec
	// is final but for its ledger. Trace reads it without the lock.
	decided atomic.Bool

	// mu serialises SpMV and the pipeline and guards every field below it.
	mu       sync.Mutex
	progress []float64
	calls    int64 // SpMV calls served, before and after the decision
	// rec is the decision record.
	rec obs.DecisionTrace

	// Self-measured SpMV cost, gathered until the pipeline decision: the
	// overhead-conscious gate needs to know what one SpMV costs here to
	// judge whether stage 2's own cost can be amortized.
	spmvSeconds float64
	spmvCalls   int

	// spmmCalls counts blocked products begun and spmmInFlight those running
	// right now. SpMM touches nothing else of the wrapper; SpMV reads the pair
	// to drop a timing sample that shared the cores with a blocked product.
	spmmCalls    atomic.Int64
	spmmInFlight atomic.Int32
}

// operator is the matrix SpMV runs on, published whole behind
// Adaptive.op.
type operator struct{ sparse.Matrix }

// NewAdaptive wraps a matrix in its default CSR format. tol is the
// convergence tolerance of the surrounding loop (the stage-1 predictor
// forecasts when the progress indicator will cross it). cfg is taken as
// given, its Lim included: build it from DefaultConfig. parallel is
// ignored: every product runs through its format's SpMVParallel, which
// sparse's one gate runs inline when the matrix is too small to split. The
// parameter remains only because benchmark/ compiles against it and leaves
// with that module's next change (ROADMAP 10(d)).
func NewAdaptive(a *sparse.CSR, tol float64, preds *Predictors, cfg Config, parallel bool) *Adaptive {
	clock := cfg.Clock
	if clock == nil {
		clock = timing.WallClock{}
	}
	ad := &Adaptive{
		cfg:   cfg,
		preds: preds,
		tol:   tol,
		clock: clock,
		csr:   a,
	}
	ad.op.Store(&operator{a})
	return ad
}

// Dims implements the solver Operator contract.
func (ad *Adaptive) Dims() (int, int) { return ad.csr.Dims() }

// SpMV computes y = A*x on whichever format the matrix currently has.
// Until the pipeline decision the calls are timed (two clock observations,
// nanoseconds of overhead on the wall clock) so the gate can reason in SpMV
// units; when stage 2 ran, timing continues so the record's T_affected
// ledger can compare the measured payoff against the model's promise.
func (ad *Adaptive) SpMV(y, x []float64) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	ad.calls++
	decided := ad.decided.Load()
	if decided && !ad.rec.Stage2Ran {
		ad.op.Load().SpMVParallel(y, x)
		return
	}
	// A sample is one SpMV alone on the handle: not one that found a blocked
	// product in flight, nor one that a blocked product joined before it ended.
	began, shared := ad.spmmCalls.Load(), ad.spmmInFlight.Load() > 0
	start := ad.clock.Now()
	ad.op.Load().SpMVParallel(y, x)
	elapsed := timing.Since(ad.clock, start).Seconds()
	if shared || ad.spmmCalls.Load() != began {
		return
	}
	if decided {
		ad.rec.Ledger.RecordPost(elapsed)
		return
	}
	ad.spmvSeconds += elapsed
	ad.spmvCalls++
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
	ad.csr.SpMMParallel(y, x, k)
}

// RecordProgress feeds one loop iteration's progress indicator (e.g. the
// residual norm a solver computes anyway). After the K-th call the
// lazy-and-light pipeline runs exactly once, across all goroutines, with the
// lock held, so concurrent SpMV callers see the format change atomically.
func (ad *Adaptive) RecordProgress(v float64) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	ad.progress = append(ad.progress, v)
	if ad.decided.Load() || len(ad.progress) < K {
		return
	}
	if remaining, ok := ad.runStage1(); ok {
		ad.applyStage2(ad.runStage2(remaining))
	}
	ad.decided.Store(true)
}

// runStage1 runs the lazy tripcount prediction, judges it with Gates — a
// handful of scalar ops on the self-measured SpMV baseline — and opens the
// record with what the gates returned. calls is the forecast of SpMV calls
// still to come; ok reports whether stage 2 should run.
func (ad *Adaptive) runStage1() (calls float64, ok bool) {
	start := ad.clock.Now()
	total, err := arima.DefaultTripcount().PredictTotal(ad.progress, ad.tol)
	stage1 := timing.Since(ad.clock, start).Seconds()
	ad.rec = obs.DecisionTrace{
		At:             start,
		Iterations:     len(ad.progress),
		Chosen:         sparse.FmtCSR.String(),
		PredictSeconds: stage1,
		PaidSeconds:    stage1,
		Stages:         []obs.Stage{{Name: "selector.stage1", Start: start, Seconds: stage1}},
	}
	if err != nil {
		ad.rec.Stage1Err = err.Error()
		return 0, false
	}
	ad.rec.PredictedTotal = total
	in := GateInput{Total: total, Iterations: len(ad.progress), Calls: ad.calls, NNZ: ad.csr.NNZ()}
	// With no stage 2 to gate, SpMVSeconds stays 0 and the record stops at TH.
	if ad.spmvCalls > 0 && ad.preds != nil {
		in.SpMVSeconds = ad.spmvSeconds / float64(ad.spmvCalls)
	}
	calls, ad.rec.Gates, ok = Gates(in)
	return calls, ok && ad.preds != nil
}

// GateInput is what the gates in front of stage 2 judge: stage 1's forecast
// Total in iterations, the Iterations (progress values) and SpMV Calls seen
// so far, their mean SpMVSeconds (0 = unmeasured, and the overhead gate
// stays out) and the matrix's NNZ, which feature extraction scales with.
type GateInput struct {
	Total, Iterations int
	Calls             int64
	SpMVSeconds       float64
	NNZ               int
}

// Gates is the gate sequence in front of stage 2, the one the wrapper runs
// and the experiments replay. The forecast is in iterations, and so is the
// paper's TH; everything past it — the overhead gate and stage 2's cost
// model — counts SpMV calls, which a loop may issue more than one of per
// iteration (BiCGSTAB two, restarted GMRES one and a bit), so the calls
// seen per iteration convert when above 1. calls is that forecast of SpMV
// calls still to come. Every gate inequality is returned with both of its
// sides, so a record shows how close each call was; gates[0] is
// remaining>=TH. run reports whether stage 2 should run.
func Gates(in GateInput) (calls float64, gates []obs.GateCheck, run bool) {
	remaining := in.Total - in.Iterations
	calls = float64(remaining)
	if in.Iterations > 0 {
		if perIter := float64(in.Calls) / float64(in.Iterations); perIter > 1 {
			calls *= perIter
		}
	}
	gates = append(gates, obs.GateCheck{
		Name: "remaining>=TH", LHS: float64(remaining), RHS: TH,
		Passed: remaining >= TH,
	})
	if remaining < TH {
		return calls, gates, false // loop predicted too short: conversion can't pay off
	}
	// Overhead-conscious gate on stage 2 itself: estimate the feature
	// extraction cost in units of the measured SpMV time and require enough
	// remaining calls to plausibly amortize it.
	if in.SpMVSeconds > 0 {
		est := predictFixedSeconds + featureSecondsPerNNZ*float64(in.NNZ)
		threshold := gateOverheadFactor * (est / in.SpMVSeconds)
		gates = append(gates, obs.GateCheck{
			Name: "remaining>=gate*overhead", LHS: calls, RHS: threshold,
			Passed: calls >= threshold,
		})
		if calls < threshold {
			return calls, gates, false
		}
	}
	return calls, gates, true
}

// stage2Result is everything one stage-2 run produced. A zero region start
// means that region never ran.
type stage2Result struct {
	d    Decision
	m    sparse.Matrix // operator to install; nil when staying on CSR or conversion failed
	fvec []float64     // Table I vector, for the record

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
	r.feature = timing.Since(clock, r.featureAt).Seconds()
	cached := cachedFormats(cfg)
	r.predictAt = clock.Now()
	r.d = preds.DecideQuery(fs, Query{
		Remaining: remaining, Cached: cached, Lim: cfg.Lim, Margin: cfg.Margin,
	})
	r.predict = timing.Since(clock, r.predictAt).Seconds()
	r.fvec = fs.Vector()
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
			M: m, ConvertSeconds: r.convert, NNZ: sparse.StoredSlots(m),
		})
		r.published = true
	}
	r.m = m
	return r
}

// applyStage2 folds a stage-2 run into the record, under mu: overhead
// accounting, the stages, the format swap and the T_affected ledger. Every
// second of the run stalled the solver and is paid; a cache hit additionally
// credits the publisher's conversion bill as hidden time, so the ledger stays
// honest about machine work that once happened.
func (ad *Adaptive) applyStage2(r stage2Result) {
	tr := &ad.rec
	tr.FeatureSeconds = r.feature
	tr.PredictSeconds += r.predict + r.lookup
	tr.ConvertSeconds = r.convert
	tr.PaidSeconds = tr.FeatureSeconds + tr.PredictSeconds + tr.ConvertSeconds
	if r.cacheHit {
		tr.ConvCacheHit = true
		tr.HiddenSeconds = r.credit
	}
	chosen := r.d.Format.String()
	format := map[string]string{"format": chosen}
	stage := func(name string, start time.Time, secs float64, attrs map[string]string) {
		tr.Stages = append(tr.Stages, obs.Stage{Name: name, Start: start, Seconds: secs, Attrs: attrs})
	}
	stage("selector.features", r.featureAt, r.feature, nil)
	stage("selector.decide", r.predictAt, r.predict, format)
	switch {
	case r.cacheHit:
		stage("convcache.hit", r.lookupAt, r.lookup, map[string]string{
			"format": chosen, "hidden_seconds": strconv.FormatFloat(r.credit, 'g', -1, 64)})
	case !r.lookupAt.IsZero():
		stage("convcache.miss", r.lookupAt, r.lookup, format)
	}
	if !r.convertAt.IsZero() {
		stage("selector.convert", r.convertAt, r.convert, format)
	}
	if r.published {
		stage("convcache.publish", r.convertAt, r.convert, format)
	}
	ad.recordStage2(r)
	switch {
	case r.m != nil:
		ad.op.Store(&operator{r.m})
		tr.Converted = true
	case r.convertErr != "":
		tr.ConvertErr = r.convertErr
		tr.Chosen = sparse.FmtCSR.String()
	}
	ad.seedLedger(r.d)
}

// recordStage2 writes a stage-2 decision into the record, including the
// margin inequality the argmin applied: the cheapest non-CSR candidate had
// to undercut staying — the decision's own CSR cost — by Margin to win. The
// feature vector the decision consumed is recorded so the record explains
// its decision without re-extracting the matrix.
func (ad *Adaptive) recordStage2(r stage2Result) {
	d, tr := r.d, &ad.rec
	tr.Stage2Ran = true
	tr.Chosen = d.Format.String()
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

// seedLedger seeds the ledger with the model-side quantities of stage 2's
// decision d that the payoff will be judged against. Only the paid share of
// the overhead enters the ledger's net balance; the hidden seconds (the
// conversion-cache credit) are reported but never charged.
func (ad *Adaptive) seedLedger(d Decision) {
	tr := &ad.rec
	var baseline float64
	if ad.spmvCalls > 0 {
		baseline = ad.spmvSeconds / float64(ad.spmvCalls)
	}
	// The format the wrapper actually runs on: the decision's pick, or CSR
	// when conversion failed.
	predictedNorm := 1.0
	if tr.Converted {
		if v, ok := d.PredictedSpMV[d.Format]; ok {
			predictedNorm = v
		}
	}
	tr.Ledger.InitPredictions(baseline, predictedNorm, tr.PaidSeconds, tr.HiddenSeconds, tr.Converted)
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

// Stats returns the run's bookkeeping: the record's fields and the call
// counters.
func (ad *Adaptive) Stats() Stats {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	r := &ad.rec
	return Stats{
		Iterations:     len(ad.progress),
		SpMVCalls:      ad.calls,
		SpMMCalls:      ad.spmmCalls.Load(),
		ConvCacheHit:   r.ConvCacheHit,
		Stage1Ran:      ad.decided.Load(),
		PredictedTotal: r.PredictedTotal,
		Stage2Ran:      r.Stage2Ran,
		Converted:      r.Converted,
		Format:         ad.Format(),
		FeatureSeconds: r.FeatureSeconds,
		PredictSeconds: r.PredictSeconds,
		ConvertSeconds: r.ConvertSeconds,
		PaidSeconds:    r.PaidSeconds,
		HiddenSeconds:  r.HiddenSeconds,
	}
}

// Trace returns a copy of the decision record, ok=false until the pipeline
// has run; until then it takes no lock. The copy's ledger is current as of
// the call; its slices and maps are shared with the record, which never
// writes them again, so the caller must not either.
func (ad *Adaptive) Trace() (obs.DecisionTrace, bool) {
	if !ad.decided.Load() {
		return obs.DecisionTrace{}, false
	}
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return ad.rec, true
}

// Format returns the format SpMV currently runs on.
func (ad *Adaptive) Format() sparse.Format { return ad.op.Load().Format() }
