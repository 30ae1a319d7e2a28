// Package core implements the paper's contribution: overhead-conscious
// sparse-format selection. It combines
//
//   - a bundle of regression models (Predictors) that predict, from matrix
//     features, the normalized conversion time CSR->f and the normalized
//     SpMV time of every format f (both normalized by the matrix's CSR SpMV
//     time, the trick §IV-C credits with canceling environment bias), and
//   - the two-stage lazy-and-light scheme (Adaptive): a near-free ARIMA
//     tripcount predictor observes the first K progress indicators of the
//     surrounding convergence loop and gates the expensive stage-2
//     feature-extraction + cost-benefit decision behind the TH threshold.
//
// The stage-2 decision minimizes Tconvert + Tspmv(f) * remaining-iterations,
// which is the paper's T_affected with the already-sunk T_predict removed.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/convcache"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// Config holds the selector's knobs. The defaults (K = TH = 15) are the
// values the paper settled on empirically.
type Config struct {
	// K is the number of loop iterations observed before the stage-1
	// prediction runs ("lazy": short loops never pay anything).
	K int
	// TH is the minimum predicted number of REMAINING iterations for
	// stage 2 to be worth invoking.
	TH int
	// Margin is the risk-control threshold of the stage-2 decision: a
	// conversion happens only when its predicted total cost undercuts
	// staying on CSR by at least this fraction. Format benefits on real
	// hardware can be thin relative to the predictors' error, and without
	// the margin, noise flips marginal decisions into slowdowns — the
	// "maximize speedups while avoiding large slowdowns" goal of §IV-B.
	Margin float64
	// GateOverheadFactor makes the stage-1 gate overhead-conscious about
	// stage 2 itself: stage 2 runs only when the predicted remaining
	// iterations exceed both TH and GateOverheadFactor x the estimated
	// feature-extraction cost (in SpMV calls). The paper's fixed TH = 15
	// assumes extraction costs 2-4 SpMV calls; when a platform's ratio is
	// worse, a fixed threshold lets the predictor's own overhead cause the
	// very slowdowns it exists to prevent (the §III-B chicken-egg dilemma).
	GateOverheadFactor float64
	// FeatureSecondsPerNNZ estimates extraction cost before paying it
	// (used with the wrapper's self-measured SpMV time to compute the
	// gate threshold). The default is measured, not hoped for, and measured
	// where it is paid: inside a solver loop, on caches the solver just
	// filled, features.Extract costs 7-17 ns per nonzero on the
	// benchmark's 2M-nonzero matrices (3D stencil 7-11, median 8.0;
	// power-law transition 7.5-17, median 9.1; twenty solve_short passes),
	// so 8e-9 is its low middle. Warm and alone it is faster: the
	// benchmark's features.extract_ns_per_nnz probe reads 5-9 on every
	// traced run, and when extraction gets cheaper that number says by how
	// much to lower this one.
	FeatureSecondsPerNNZ float64
	// PredictFixedSeconds is the size-independent part of the stage-2
	// overhead estimate (model inference, allocations, cold caches). On
	// tiny matrices whose whole solve lasts milliseconds this fixed cost
	// is what dominates, so the gate must know about it.
	PredictFixedSeconds float64
	// ConvCache, when non-nil, is the cross-handle conversion cache: stage 2
	// consults it before pricing candidates (a cached format's T_convert is
	// zero, which can flip a stay decision into a convert), adopts a
	// published matrix instead of converting on a hit — crediting the
	// publisher's conversion seconds as hidden overhead in the ledger — and
	// publishes its own conversion on a miss. CacheFingerprint and
	// CacheValues identify this wrapper's matrix in the cache (structure
	// hash and value digest); all three must be set for the cache to engage.
	ConvCache        *convcache.Cache
	CacheFingerprint string
	CacheValues      string
	// Lim bounds format conversions.
	Lim sparse.Limits
	// Clock supplies the timestamps the wrapper's self-measurements and the
	// overhead accounting are computed from; nil means the wall clock.
	// Injecting a timing.FakeClock makes every timing-gated decision (the
	// stage-2 overhead gate in particular) reproducible under any machine
	// load — the selector replay tests in replay_test.go rely on this.
	Clock timing.Clock
	// Journal, when non-nil, receives one obs.DecisionTrace per pipeline
	// run — stage-1 forecast, every gate inequality with both sides, the
	// per-format stage-2 predictions, and measured overheads — and the
	// wrapper keeps timing SpMV calls after the decision to maintain the
	// trace's live T_affected ledger (realized vs. predicted payoff).
	// nil (the default) disables tracing and the post-decision timing.
	Journal *obs.Journal
	// TraceLabel tags this wrapper's traces in the journal (e.g. the
	// server's matrix handle name).
	TraceLabel string
	// SpanSink, when non-nil, receives one completed obs.Span per selector
	// stage boundary — stage-1 tripcount prediction, stage-2 feature
	// extraction, decide, and conversion — parented under the request span
	// installed via Adaptive.SetSpanParent. The conversion span carries the
	// paid overhead and the decision trace ID, tying the
	// distributed trace tree back to the journal's T_affected ledger. nil
	// (the default) disables span emission.
	SpanSink func(obs.Span)
}

// DefaultConfig mirrors the paper's empirical settings plus a 10% decision
// margin and the overhead-conscious gate factor.
func DefaultConfig() Config {
	return Config{
		K:                    15,
		TH:                   15,
		Margin:               0.10,
		GateOverheadFactor:   5,
		FeatureSecondsPerNNZ: 8e-9,
		PredictFixedSeconds:  300e-6,
		Lim:                  sparse.DefaultLimits,
	}
}

// Predictors is the trained stage-2 model bundle. ConvTime[f] predicts
// T_convert(CSR->f) / T_spmv(CSR); SpMVTime[f] predicts
// T_spmv(f) / T_spmv(CSR). CSR itself needs no models (its normalized SpMV
// time is 1 and conversion is free). A bundle is immutable once a handle
// holds it.
type Predictors struct {
	ConvTime map[sparse.Format]*gbt.Model
	SpMVTime map[sparse.Format]*gbt.Model
}

// NewPredictors allocates an empty bundle.
func NewPredictors() *Predictors {
	return &Predictors{
		ConvTime: make(map[sparse.Format]*gbt.Model),
		SpMVTime: make(map[sparse.Format]*gbt.Model),
	}
}

// Formats lists the formats the bundle can price — those holding both
// models — in sparse.AllFormats order.
func (p *Predictors) Formats() []sparse.Format {
	var fs []sparse.Format
	for _, f := range sparse.AllFormats {
		if p.ConvTime[f] != nil && p.SpMVTime[f] != nil {
			fs = append(fs, f)
		}
	}
	return fs
}

// Validate rejects a malformed bundle: a format with a conversion-time model
// but no SpMV-time model or the reverse (the decision would silently never
// pick it), or no format at all. Which formats a bundle covers is data, not
// schema — the oracle prices some, the trainer fits those with enough
// samples — so an absent format is not an error.
func (p *Predictors) Validate() error {
	paired := false
	for _, f := range sparse.AllFormats {
		switch conv, spmv := p.ConvTime[f] != nil, p.SpMVTime[f] != nil; {
		case conv && !spmv:
			return fmt.Errorf("core: %v has a conversion-time model but no SpMV-time model", f)
		case spmv && !conv:
			return fmt.Errorf("core: %v has an SpMV-time model but no conversion-time model", f)
		case conv:
			paired = true
		}
	}
	if !paired {
		return errors.New("core: predictor bundle holds no format's models")
	}
	return nil
}

// Decision is the outcome of a stage-2 cost-benefit evaluation.
type Decision struct {
	// Format is the chosen format (FmtCSR means "stay put").
	Format sparse.Format
	// PredictedCost maps each candidate format to its predicted
	// Tconv_norm + Tspmv_norm * remaining (in units of CSR SpMV calls);
	// invalid formats are absent.
	PredictedCost map[sparse.Format]float64
	// PredictedSpMV and PredictedConv are the raw (clamped) model outputs
	// the costs were assembled from: normalized SpMV time and normalized
	// conversion time per candidate format. CSR is present in PredictedSpMV
	// with its defining value 1 and in PredictedConv with 0. Kept so the
	// decision journal can show both regressors' verdicts, and so the
	// T_affected ledger can compare the chosen format's predicted per-call
	// time against what post-conversion SpMV calls actually measure.
	PredictedSpMV map[sparse.Format]float64
	PredictedConv map[sparse.Format]float64
	// Remaining is the count of SpMV calls the costs were evaluated against.
	Remaining float64
}

// formatValid applies the same storage-blowup limits the conversions
// enforce, computed from already-extracted features so stage 2 does not pay
// a second pass. BSR's block count at the conversion block size is the one
// quantity Table I lacks, so it is passed in separately.
func formatValid(f sparse.Format, s *features.Set, bsrBlocks int, lim sparse.Limits) bool {
	if s.NNZ == 0 {
		return true
	}
	switch f {
	case sparse.FmtDIA:
		return s.Ndiags*s.M <= lim.DIAFill*s.NNZ
	case sparse.FmtELL:
		return s.M*s.MaxRD <= lim.ELLFill*s.NNZ
	case sparse.FmtBSR:
		bs := float64(lim.BSRBlockSize)
		return float64(bsrBlocks)*bs*bs <= lim.BSRFill*s.NNZ
	default:
		return true
	}
}

// Query is everything a stage-2 cost-benefit evaluation depends on besides
// the matrix features. The zero value of each optional field reproduces the
// paper's inline SpMV model: a nil Cached set means no conversion is free.
type Query struct {
	// BSRBlocks is the matrix's block count at Lim.BSRBlockSize, the one
	// validity input Table I lacks.
	BSRBlocks int
	// Remaining is how many more calls the loop is predicted to make.
	Remaining float64
	// Cached marks formats whose converted matrix is already published in
	// the conversion cache for this exact (structure, values) pair: their
	// T_convert is zero — adoption is a map lookup — which can flip a stay
	// into a convert.
	Cached map[sparse.Format]bool
	// Lim bounds format conversions; Margin is the fraction by which a
	// conversion must undercut staying on CSR (Config.Margin).
	Lim    sparse.Limits
	Margin float64
}

// Decide is the paper's inline SpMV decision: DecideQuery with no cache.
func (p *Predictors) Decide(s *features.Set, bsrBlocks int, remaining float64, lim sparse.Limits, margin float64) Decision {
	return p.DecideQuery(s, Query{BSRBlocks: bsrBlocks, Remaining: remaining, Lim: lim, Margin: margin})
}

// DecideQuery runs the stage-2 cost-benefit analysis: for every valid
// format, predicted total cost over the remaining calls (in CSR-SpMV units)
// is the conversion bill plus the per-call cost times Remaining; staying on
// CSR costs Remaining. The argmin wins, but a conversion must additionally
// undercut staying by the margin fraction (risk control against prediction
// noise on marginal wins).
func (p *Predictors) DecideQuery(s *features.Set, q Query) Decision {
	x := s.Vector()
	d := Decision{
		Format:        sparse.FmtCSR,
		PredictedCost: map[sparse.Format]float64{sparse.FmtCSR: q.Remaining},
		PredictedSpMV: map[sparse.Format]float64{sparse.FmtCSR: 1},
		PredictedConv: map[sparse.Format]float64{sparse.FmtCSR: 0},
		Remaining:     q.Remaining,
	}
	best := q.Remaining * (1 - q.Margin)
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		if p.ConvTime[f] == nil || p.SpMVTime[f] == nil {
			continue
		}
		if !formatValid(f, s, q.BSRBlocks, q.Lim) {
			continue
		}
		// Regression outputs can stray slightly negative near zero; clamp
		// so a bad extrapolation cannot fabricate negative cost.
		conv := max(p.ConvTime[f].Predict(x), 0)
		spmv := max(p.SpMVTime[f].Predict(x), 0)
		if q.Cached[f] {
			conv = 0
		}
		cost := conv + spmv*q.Remaining
		d.PredictedCost[f] = cost
		d.PredictedSpMV[f] = spmv
		d.PredictedConv[f] = conv
		if cost < best {
			best = cost
			d.Format = f
		}
	}
	return d
}

// OracleDecide is the oracle ("upper bound") variant of Decide used by the
// experiments: instead of model predictions it consumes the true normalized
// times. convNorm and spmvNorm map each valid format to its actual
// normalized cost (CSR must be present in spmvNorm with value 1).
func OracleDecide(convNorm, spmvNorm map[sparse.Format]float64, remaining float64) sparse.Format {
	best := sparse.FmtCSR
	bestCost := remaining
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		conv, ok1 := convNorm[f]
		spmv, ok2 := spmvNorm[f]
		if !ok1 || !ok2 {
			continue
		}
		cost := conv + spmv*remaining
		if cost < bestCost {
			bestCost = cost
			best = f
		}
	}
	return best
}

// OverheadObliviousDecide picks the format minimizing per-call SpMV time
// alone — the prior-work baseline the paper compares against.
func OverheadObliviousDecide(spmvNorm map[sparse.Format]float64) sparse.Format {
	best := sparse.FmtCSR
	bestCost := math.Inf(1)
	if v, ok := spmvNorm[sparse.FmtCSR]; ok {
		bestCost = v
	}
	for _, f := range sparse.AllFormats {
		v, ok := spmvNorm[f]
		if !ok {
			continue
		}
		if v < bestCost {
			bestCost = v
			best = f
		}
	}
	return best
}
