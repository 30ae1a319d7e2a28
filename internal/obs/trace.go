package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// GateCheck records one inequality the selector pipeline evaluated, with
// both sides, so a trace shows not just *what* was decided but *how close*
// the call was. By convention the gate passes when LHS >= RHS.
type GateCheck struct {
	// Name identifies the inequality (e.g. "remaining>=TH").
	Name string `json:"name"`
	// LHS and RHS are the two sides as evaluated.
	LHS float64 `json:"lhs"`
	RHS float64 `json:"rhs"`
	// Passed reports the verdict.
	Passed bool `json:"passed"`
}

// Ledger is the online T_affected account attached to a decision once
// stage 2 has run: the wrapper keeps timing SpMV calls after the decision,
// so the conversion's measured payoff can be compared — live — against the
// payoff the cost model predicted when it made the call.
//
// All absolute quantities are seconds; speedups are ratios of the measured
// pre-decision CSR SpMV time to per-call times on the chosen format.
type Ledger struct {
	// BaselineSpMVSeconds is the self-measured average CSR SpMV time before
	// the decision — the unit every normalized prediction is denominated in.
	BaselineSpMVSeconds float64 `json:"baseline_spmv_seconds"`
	// PredictedSpMVSeconds is the model's per-call prediction on the chosen
	// format (normalized prediction × baseline). Equal to the baseline when
	// the decision was to stay on CSR.
	PredictedSpMVSeconds float64 `json:"predicted_spmv_seconds"`
	// PredictedSpeedup is baseline / predicted per-call time.
	PredictedSpeedup float64 `json:"predicted_speedup"`
	// PredictedBreakEvenCalls is how many post-conversion SpMV calls the
	// model said it would take for the per-call saving to repay the
	// stage-2 overhead (feature + predict + convert); 0 when staying on
	// CSR (nothing to repay a conversion for), -1 when the predicted
	// saving is non-positive (can never break even).
	PredictedBreakEvenCalls int `json:"predicted_break_even_calls"`

	// OverheadSeconds is the measured stage-2 overhead that stalled the
	// solver's critical path — the *paid* share. With the inline pipeline
	// this is all of FeatureSeconds + PredictSeconds + ConvertSeconds; with
	// the asynchronous pipeline it is only the stage that still runs inline
	// (stage 1), because everything dispatched to the background overlaps
	// in-flight iterations instead of stalling them.
	OverheadSeconds float64 `json:"overhead_seconds"`
	// HiddenSeconds is the overhead that ran concurrently with in-flight
	// iterations (async stage 2) and therefore never stalled the solver. It
	// is excluded from the net/regret arithmetic: hidden time is only lost
	// machine work, not lost solver latency. Always 0 for inline pipelines.
	HiddenSeconds float64 `json:"hidden_overhead_seconds"`

	// PostSpMVCalls / PostSpMVSeconds accumulate the timed SpMV calls
	// executed after the decision.
	PostSpMVCalls   int64   `json:"post_spmv_calls"`
	PostSpMVSeconds float64 `json:"post_spmv_seconds"`
	// RealizedSpMVSeconds is the measured average per-call time after the
	// decision (0 until the first post-decision call).
	RealizedSpMVSeconds float64 `json:"realized_spmv_seconds"`
	// RealizedSpeedup is baseline / realized per-call time.
	RealizedSpeedup float64 `json:"realized_speedup"`
	// SavedSeconds is (baseline − realized per-call) × calls: the measured
	// payoff so far. Negative when the chosen format is actually slower.
	SavedSeconds float64 `json:"saved_seconds"`
	// NetSeconds is SavedSeconds − OverheadSeconds: the running balance of
	// the paper's T_affected identity against the stay-on-CSR counterfactual.
	NetSeconds float64 `json:"net_seconds"`
	// BrokeEven reports whether the measured saving has repaid the overhead.
	BrokeEven bool `json:"broke_even"`
	// RegretSeconds is max(0, −NetSeconds): how much the decision has cost
	// relative to doing nothing, so far. A conversion that lost shows its
	// loss here; a win shows 0.
	RegretSeconds float64 `json:"regret_seconds"`
}

// RecordPost folds one post-decision SpMV observation into the ledger and
// recomputes the derived fields.
func (l *Ledger) RecordPost(seconds float64) {
	l.PostSpMVCalls++
	l.PostSpMVSeconds += seconds
	l.RealizedSpMVSeconds = l.PostSpMVSeconds / float64(l.PostSpMVCalls)
	if l.RealizedSpMVSeconds > 0 {
		l.RealizedSpeedup = l.BaselineSpMVSeconds / l.RealizedSpMVSeconds
	}
	l.SavedSeconds = (l.BaselineSpMVSeconds - l.RealizedSpMVSeconds) * float64(l.PostSpMVCalls)
	l.NetSeconds = l.SavedSeconds - l.OverheadSeconds
	l.BrokeEven = l.NetSeconds >= 0
	l.RegretSeconds = math.Max(0, -l.NetSeconds)
}

// InitPredictions fills the model-side fields from the baseline, the chosen
// format's normalized SpMV prediction, and the measured overhead split into
// its paid (critical-path) and hidden (overlapped) shares. Only the paid
// share enters the net balance and the break-even count: a conversion whose
// overhead was fully hidden starts at net 0 and breaks even on its first
// faster call. Inline pipelines pass hidden = 0, which reproduces the
// original arithmetic exactly.
func (l *Ledger) InitPredictions(baseline, predictedNorm, paid, hidden float64, converted bool) {
	l.BaselineSpMVSeconds = baseline
	l.PredictedSpMVSeconds = predictedNorm * baseline
	if l.PredictedSpMVSeconds > 0 {
		l.PredictedSpeedup = baseline / l.PredictedSpMVSeconds
	}
	l.OverheadSeconds = paid
	l.HiddenSeconds = hidden
	l.NetSeconds = -paid
	l.RegretSeconds = paid
	switch {
	case !converted:
		l.PredictedBreakEvenCalls = 0
	case baseline > l.PredictedSpMVSeconds:
		l.PredictedBreakEvenCalls = int(math.Ceil(paid / (baseline - l.PredictedSpMVSeconds)))
	default:
		l.PredictedBreakEvenCalls = -1
	}
}

// DecisionTrace is the structured record of one run of the two-stage
// selector pipeline: what stage 1 forecast, which gates opened (with both
// sides of every inequality), what stage 2 predicted per format, what was
// chosen, what the overhead measured — and, via the Ledger, whether the
// promised payoff is materializing.
type DecisionTrace struct {
	// ID is the journal-assigned sequence number (1-based).
	ID uint64 `json:"id"`
	// Label identifies the matrix/handle the decision was made for.
	Label string `json:"label,omitempty"`
	// At is the pipeline start timestamp on the selector's clock (the fake
	// epoch under test replay; wall time in production).
	At time.Time `json:"at"`

	// Iterations is how many progress reports had arrived when the
	// pipeline fired (= the selector's K).
	Iterations int `json:"iterations"`
	// PredictedTotal is stage 1's loop tripcount forecast.
	PredictedTotal int `json:"predicted_total"`
	// Stage1Err is the tripcount predictor's failure, if it failed.
	Stage1Err string `json:"stage1_err,omitempty"`
	// Gates are the inequalities evaluated on the way to stage 2, in order.
	Gates []GateCheck `json:"gates"`

	// Stage2Ran reports whether feature extraction + model inference ran.
	Stage2Ran bool `json:"stage2_ran"`
	// Features is the Table I feature vector stage 2 extracted: the input
	// that explains the decision, recorded so a trace can be read without
	// re-extracting the matrix.
	Features []float64 `json:"features,omitempty"`
	// Async reports that stage 2 was dispatched to a background worker and
	// its result adopted at a later iteration boundary, rather than running
	// inline at the gate.
	Async bool `json:"async,omitempty"`
	// Canceled reports an asynchronous stage-2 job that was abandoned — the
	// solver converged (or the handle was closed) before the background work
	// could be adopted. A canceled trace carries stage-1 data only.
	Canceled bool `json:"canceled,omitempty"`
	// PredictedCostByFormat maps each candidate format to stage 2's total
	// predicted cost over the remaining iterations, in CSR-SpMV units.
	PredictedCostByFormat map[string]float64 `json:"predicted_cost_by_format,omitempty"`
	// PredictedSpMVNormByFormat / PredictedConvNormByFormat are the raw
	// per-format model outputs: normalized SpMV time and normalized
	// conversion time (the paper's two regressors).
	PredictedSpMVNormByFormat map[string]float64 `json:"predicted_spmv_norm_by_format,omitempty"`
	PredictedConvNormByFormat map[string]float64 `json:"predicted_conv_norm_by_format,omitempty"`
	// Chosen is the format the argmin picked (CSR = stay).
	Chosen string `json:"chosen"`
	// Converted reports whether the matrix was actually re-formatted.
	Converted bool `json:"converted"`
	// ConvCacheHit reports the converted matrix was adopted from the shared
	// conversion cache (another tenant paid T_convert); the publisher's bill
	// shows up in the ledger as hidden seconds, not paid ones.
	ConvCacheHit bool `json:"convcache_hit,omitempty"`
	// ConvertErr is set when the conversion itself failed (CSR fallback).
	ConvertErr string `json:"convert_err,omitempty"`

	// FeatureSeconds / PredictSeconds / ConvertSeconds are the measured
	// stage overheads — the paper's T_predict split into its two parts,
	// plus T_convert.
	FeatureSeconds float64 `json:"feature_seconds"`
	PredictSeconds float64 `json:"predict_seconds"`
	ConvertSeconds float64 `json:"convert_seconds"`
	// PaidSeconds / HiddenSeconds partition the overheads above by whether
	// they stalled the solver (paid, on the critical path) or ran overlapped
	// with in-flight iterations (hidden, async stage 2). Their sum equals
	// FeatureSeconds + PredictSeconds + ConvertSeconds; for an inline
	// pipeline HiddenSeconds is 0.
	PaidSeconds   float64 `json:"paid_seconds"`
	HiddenSeconds float64 `json:"hidden_seconds"`

	// Ledger tracks measured-vs-predicted payoff; valid once Stage2Ran.
	Ledger Ledger `json:"ledger"`
}

// Render formats a trace as indented human-readable text — what ocsel's
// -trace flag prints.
func (t DecisionTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decision #%d", t.ID)
	if t.Label != "" {
		fmt.Fprintf(&b, " [%s]", t.Label)
	}
	fmt.Fprintf(&b, " at iteration %d\n", t.Iterations)
	if t.Stage1Err != "" {
		fmt.Fprintf(&b, "  stage1: forecast failed: %s\n", t.Stage1Err)
	} else {
		fmt.Fprintf(&b, "  stage1: predicted %d total iterations\n", t.PredictedTotal)
	}
	for _, g := range t.Gates {
		verdict := "pass"
		if !g.Passed {
			verdict = "BLOCK"
		}
		fmt.Fprintf(&b, "  gate %-24s %.4g >= %.4g  %s\n", g.Name+":", g.LHS, g.RHS, verdict)
	}
	if t.Canceled {
		b.WriteString("  stage2: canceled (solver finished before the background pipeline was adopted)\n")
		return b.String()
	}
	if !t.Stage2Ran {
		b.WriteString("  stage2: not run\n")
		return b.String()
	}
	keys := make([]string, 0, len(t.PredictedCostByFormat))
	for k := range t.PredictedCostByFormat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		marker := " "
		if k == t.Chosen {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s %-5s cost %.4g (spmv %.4g, conv %.4g)\n", marker, k,
			t.PredictedCostByFormat[k], t.PredictedSpMVNormByFormat[k], t.PredictedConvNormByFormat[k])
	}
	fmt.Fprintf(&b, "  chosen %s converted=%v overhead: feature %.3gs predict %.3gs convert %.3gs\n",
		t.Chosen, t.Converted, t.FeatureSeconds, t.PredictSeconds, t.ConvertSeconds)
	if t.Async {
		fmt.Fprintf(&b, "  async: paid %.3gs on the critical path, %.3gs hidden behind in-flight iterations\n",
			t.PaidSeconds, t.HiddenSeconds)
	}
	l := t.Ledger
	fmt.Fprintf(&b, "  ledger: baseline %.3gs predicted %.3gs (%.2fx) realized %.3gs (%.2fx)\n",
		l.BaselineSpMVSeconds, l.PredictedSpMVSeconds, l.PredictedSpeedup,
		l.RealizedSpMVSeconds, l.RealizedSpeedup)
	fmt.Fprintf(&b, "  ledger: %d post calls, saved %.3gs, net %.3gs, break-even pred %d, broke-even=%v, regret %.3gs\n",
		l.PostSpMVCalls, l.SavedSeconds, l.NetSeconds, l.PredictedBreakEvenCalls, l.BrokeEven, l.RegretSeconds)
	return b.String()
}
