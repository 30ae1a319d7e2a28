package retrain_test

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/retrain"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// fakeTarget is a minimal retrain.Target: a published bundle pointer plus a
// fixed live-handle count.
type fakeTarget struct {
	preds   *core.Predictors
	handles int
	swaps   int
}

func (f *fakeTarget) Predictors() *core.Predictors { return f.preds }
func (f *fakeTarget) SetPredictors(p *core.Predictors) int {
	f.preds = p
	f.swaps++
	return f.handles
}

// featVec extracts a real Table I vector so fabricated traces look exactly
// like production ones.
func featVec(t *testing.T, seed int64) []float64 {
	t.Helper()
	m, err := matgen.Generate(matgen.Spec{
		Name: "retrain-fixture", Family: matgen.FamBanded, Size: 300, Degree: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return features.Extract(m).Vector()
}

// appendConverted fabricates one completed converted-to-ELL decision trace:
// baseline 1ms, conversion 4ms, the model predicted predictedNorm x baseline
// per call, and post-decision calls measured realizedNorm x baseline.
func appendConverted(j *obs.Journal, fv []float64, predictedNorm, realizedNorm, regret float64) uint64 {
	const baseline = 1e-3
	tr := obs.DecisionTrace{
		Label:          "fixture",
		Stage2Ran:      true,
		Chosen:         sparse.FmtELL.String(),
		Converted:      true,
		Features:       fv,
		ConvertSeconds: 4 * baseline,
		Ledger: obs.Ledger{
			BaselineSpMVSeconds:  baseline,
			PredictedSpMVSeconds: predictedNorm * baseline,
			RealizedSpMVSeconds:  realizedNorm * baseline,
			PostSpMVCalls:        5,
			RegretSeconds:        regret,
		},
	}
	return j.Append(tr)
}

// loopConfig is the deterministic test configuration: FakeClock, synchronous
// ticks (Start never called), thresholds sized for a dozen fabricated traces.
func loopConfig(j *obs.Journal, tgt retrain.Target) retrain.Config {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	return retrain.Config{
		Journal:    j,
		Target:     tgt,
		Clock:      clk,
		MinSamples: 8,
		MaxSamples: 12,
		MinWindow:  4,
		// Defaults elsewhere: ErrThreshold 0.5, RegretThreshold 1s; the
		// holdout is the newest quarter of the samples.
	}
}

// TestTickEmptyJournalNoOp pins the quiescent state: no traces, no drift,
// no training, generation 0.
func TestTickEmptyJournalNoOp(t *testing.T) {
	tgt := &fakeTarget{handles: 3}
	l, err := retrain.New(loopConfig(obs.NewJournal(0), tgt))
	if err != nil {
		t.Fatal(err)
	}
	res := l.Tick()
	if res.Harvested != 0 || len(res.Drifted) != 0 || res.Retrained || res.Swapped {
		t.Fatalf("empty journal tick = %+v, want all-zero", res)
	}
	st := l.Status()
	if st.Generation != 0 || st.Swaps != 0 || st.Retrains != 0 || st.SamplesHeld != 0 {
		t.Fatalf("status = %+v, want untouched", st)
	}
	if tgt.swaps != 0 {
		t.Fatal("SetPredictors called without a swap")
	}
}

// TestDriftRetrainSwapGolden scripts the full drift→retrain→validate→swap
// sequence twice with exact generation counts. The fabricated truth is
// constant (every sample's normalized ELL SpMV time is the same), so the
// GBT — whose initial prediction is the target mean and whose residuals are
// then exactly zero — trains to a bit-exact constant model and every
// holdout comparison is deterministic.
//
// Round 1: the (absent) seed model predicted 0.05x while reality measured
// 1.0x — relative error 0.95 over every trace, far past the 0.5 threshold.
// The candidate (trained on measured samples) predicts 1.0 and there is no
// incumbent to beat, so generation 1 installs.
//
// Round 2: new traces contradict generation 1 (realized 3.0x vs its
// predicted 1.0x, relative error 2/3). MaxSamples=12 has evicted every
// round-1 sample by then, so the candidate trains purely on 3.0x truth,
// beats generation 1 on the holdout, and generation 2 installs.
//
// Round 3: the incumbent is widened to eight formats (a model-oracle seed
// bundle's shape) and the candidate to five (what training on the measured
// menu yields). Reality shifts again, on ELL only. The merge must take the
// candidate's ELL pair, keep the incumbent's pair for the four menu formats
// the holdout has no evidence on, and keep COO/BSR/CSR5, which the candidate
// does not model at all: a narrower candidate never shrinks the bundle.
func TestDriftRetrainSwapGolden(t *testing.T) {
	j := obs.NewJournal(0)
	tgt := &fakeTarget{handles: 7}
	dir := t.TempDir()
	cfg := loopConfig(j, tgt)
	cfg.SaveDir = dir
	menu := []sparse.Format{sparse.FmtDIA, sparse.FmtELL, sparse.FmtHYB, sparse.FmtSELL, sparse.FmtJDS}
	fiveFormatCandidate := false
	cfg.TrainFunc = func(s []trainer.Sample, p gbt.Params, minSamples int) (*core.Predictors, error) {
		cand, err := trainer.Train(s, p, minSamples)
		if err == nil && fiveFormatCandidate {
			for _, f := range menu {
				cand.ConvTime[f], cand.SpMVTime[f] = cand.ConvTime[sparse.FmtELL], cand.SpMVTime[sparse.FmtELL]
			}
		}
		return cand, err
	}
	l, err := retrain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 12; seed++ {
		appendConverted(j, featVec(t, seed), 0.05, 1.0, 0.004)
	}
	res := l.Tick()
	if res.Harvested != 12 {
		t.Fatalf("harvested %d, want 12", res.Harvested)
	}
	if len(res.Drifted) == 0 || !res.Retrained || !res.Swapped {
		t.Fatalf("round 1 = %+v, want drift+retrain+swap", res)
	}
	if res.Generation != 1 || res.HandlesUpdated != 7 {
		t.Fatalf("generation %d (handles %d), want 1 (7)", res.Generation, res.HandlesUpdated)
	}
	if tgt.preds == nil || tgt.preds.Generation != 1 || tgt.swaps != 1 {
		t.Fatalf("target bundle gen=%v swaps=%d, want 1/1", tgt.preds, tgt.swaps)
	}
	// The accepted model reproduces the constant truth exactly.
	fv := featVec(t, 3)
	if got := tgt.preds.SpMVTime[sparse.FmtELL].Predict(fv); !closeTo(got, 1.0) {
		t.Errorf("gen-1 SpMV norm prediction = %g, want 1.0", got)
	}
	if got := tgt.preds.ConvTime[sparse.FmtELL].Predict(fv); !closeTo(got, 4.0) {
		t.Errorf("gen-1 conv norm prediction = %g, want 4.0", got)
	}

	// Idle tick: the swap reset the drift evidence; nothing may move.
	res = l.Tick()
	if res.Harvested != 0 || len(res.Drifted) != 0 || res.Retrained || res.Swapped {
		t.Fatalf("idle tick = %+v, want no-op", res)
	}
	if st := l.Status(); st.Generation != 1 || st.Swaps != 1 || st.Retrains != 1 {
		t.Fatalf("post-idle status = %+v, want gen/swaps/retrains = 1/1/1", st)
	}

	// Round 2: reality shifts under generation 1.
	for seed := int64(21); seed <= 32; seed++ {
		appendConverted(j, featVec(t, seed), 1.0, 3.0, 0.004)
	}
	res = l.Tick()
	if !res.Swapped || res.Generation != 2 {
		t.Fatalf("round 2 = %+v, want swap to generation 2", res)
	}
	if got := tgt.preds.SpMVTime[sparse.FmtELL].Predict(fv); !closeTo(got, 3.0) {
		t.Errorf("gen-2 SpMV norm prediction = %g, want 3.0", got)
	}

	st := l.Status()
	if st.Generation != 2 || st.Swaps != 2 || st.Retrains != 2 || st.Rejections != 0 {
		t.Fatalf("final status = %+v, want gen 2, swaps 2, retrains 2, rejections 0", st)
	}
	if st.TracesSeen != 24 || st.SamplesHeld != 12 {
		t.Fatalf("traces seen %d / samples held %d, want 24 / 12 (ring evicted round 1)",
			st.TracesSeen, st.SamplesHeld)
	}

	// Both accepted bundles persisted and load back with matching schema.
	for gen, want := range map[string]float64{"gen-0001": 1.0, "gen-0002": 3.0} {
		p, man, err := trainer.LoadBundle(filepath.Join(dir, gen), features.NumFeatures)
		if err != nil {
			t.Fatalf("loading %s: %v", gen, err)
		}
		if man.Oracle != "online" {
			t.Errorf("%s manifest oracle %q, want online", gen, man.Oracle)
		}
		if got := p.SpMVTime[sparse.FmtELL].Predict(fv); !closeTo(got, want) {
			t.Errorf("%s predicts %g, want %g", gen, got, want)
		}
	}

	// Round 3: five-format candidate over an eight-format incumbent.
	eight := tgt.preds.Clone()
	others := []sparse.Format{sparse.FmtCOO, sparse.FmtDIA, sparse.FmtHYB, sparse.FmtBSR, sparse.FmtCSR5, sparse.FmtSELL, sparse.FmtJDS}
	for _, f := range others {
		eight.ConvTime[f], eight.SpMVTime[f] = eight.ConvTime[sparse.FmtELL], eight.SpMVTime[sparse.FmtELL]
	}
	tgt.preds = eight
	fiveFormatCandidate = true
	for seed := int64(41); seed <= 52; seed++ {
		appendConverted(j, featVec(t, seed), 3.0, 9.0, 0.004)
	}
	res = l.Tick()
	if !res.Swapped || res.Generation != 3 {
		t.Fatalf("round 3 = %+v, want swap to generation 3", res)
	}
	if got := tgt.preds.Formats(); len(got) != 8 {
		t.Fatalf("merged bundle holds %v, want all eight of the incumbent's formats", got)
	}
	if got := tgt.preds.SpMVTime[sparse.FmtELL].Predict(fv); !closeTo(got, 9.0) {
		t.Errorf("gen-3 ELL SpMV norm prediction = %g, want the candidate's 9.0", got)
	}
	for _, f := range others {
		if tgt.preds.SpMVTime[f] != eight.SpMVTime[f] || tgt.preds.ConvTime[f] != eight.ConvTime[f] {
			t.Errorf("%v: the merge replaced the incumbent's models without holdout evidence", f)
		}
	}
}

// TestPoisonedCandidateRejected injects a TrainFunc that returns a bundle
// wildly worse than the (accurate) incumbent. The holdout gate must refuse
// the swap and keep the old model serving — on every retry.
func TestPoisonedCandidateRejected(t *testing.T) {
	j := obs.NewJournal(0)

	// Accurate incumbent: constant models matching the fabricated truth
	// (SpMV norm 1.0, conv norm 4.0), trained from two synthetic samples.
	goodSamples := []trainer.Sample{
		constSample(featVec(t, 101), 1.0, 4.0),
		constSample(featVec(t, 102), 1.0, 4.0),
	}
	incumbent, err := trainer.Train(goodSamples, gbt.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &fakeTarget{preds: incumbent, handles: 2}

	// Poisoned candidate: predicts SpMV norm 9.0 / conv norm 0.0 — as wrong
	// as it gets against a truth of 1.0 / 4.0.
	poison, err := trainer.Train([]trainer.Sample{
		constSample(featVec(t, 103), 9.0, 0.0),
		constSample(featVec(t, 104), 9.0, 0.0),
	}, gbt.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}

	cfg := loopConfig(j, tgt)
	// The incumbent predicts well, so relative error stays ~0; drive drift
	// through cumulative regret instead.
	cfg.RegretThreshold = 0.01
	cfg.TrainFunc = func([]trainer.Sample, gbt.Params, int) (*core.Predictors, error) {
		return poison, nil
	}
	l, err := retrain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 12; seed++ {
		appendConverted(j, featVec(t, seed), 1.0, 1.0, 0.004) // 12 x 4ms regret > 10ms threshold
	}
	res := l.Tick()
	if len(res.Drifted) == 0 || !res.Retrained {
		t.Fatalf("tick = %+v, want drift + retrain attempt", res)
	}
	if res.Swapped {
		t.Fatal("poisoned candidate was swapped in")
	}
	if tgt.preds != incumbent || tgt.swaps != 0 {
		t.Fatal("incumbent bundle was replaced or SetPredictors called")
	}
	st := l.Status()
	if st.Rejections != 1 || st.Swaps != 0 || st.Generation != 0 {
		t.Fatalf("status = %+v, want 1 rejection, 0 swaps, generation 0", st)
	}
	if st.LastError == "" {
		t.Error("rejection left no LastError for /debug/retrain")
	}

	// Drift evidence is NOT reset on rejection: the next tick retries (and
	// is refused again), still without touching the incumbent.
	res = l.Tick()
	if !res.Retrained || res.Swapped {
		t.Fatalf("retry tick = %+v, want another rejected retrain", res)
	}
	if st := l.Status(); st.Rejections != 2 || st.Retrains != 2 || tgt.preds != incumbent {
		t.Fatalf("retry status = %+v (target swaps %d)", st, tgt.swaps)
	}
}

// TestHarvestFiltersAndPending pins the harvest contract: canceled traces,
// gated stage-1-only traces and failed forecasts are consumed silently; a completed
// stage-2 trace with no post-decision calls yet *blocks* the walk until its
// ledger fills in (journal Update), then harvests.
func TestHarvestFiltersAndPending(t *testing.T) {
	j := obs.NewJournal(0)
	tgt := &fakeTarget{handles: 1}
	l, err := retrain.New(loopConfig(j, tgt))
	if err != nil {
		t.Fatal(err)
	}
	fv := featVec(t, 1)

	j.Append(obs.DecisionTrace{Canceled: true, Stage2Ran: true, Features: fv})
	j.Append(obs.DecisionTrace{PredictedTotal: 20, Gates: []obs.GateCheck{
		{Name: "remaining>=TH", LHS: 5, RHS: 15}}}) // stage 2 never ran
	j.Append(obs.DecisionTrace{Stage1Err: "too noisy"})
	if res := l.Tick(); res.Harvested != 0 {
		t.Fatalf("harvested %d from unusable traces, want 0", res.Harvested)
	}
	if st := l.Status(); st.TracesSeen != 3 || st.PendingTraceID != 4 {
		t.Fatalf("status = %+v, want 3 traces consumed, next id 4", st)
	}

	// A decided trace whose handle hasn't served any post-decision call yet:
	// not consumable, not skippable — the walk parks on it.
	id := j.Append(obs.DecisionTrace{
		Stage2Ran: true, Chosen: "ell", Converted: true, Features: fv,
		ConvertSeconds: 4e-3,
		Ledger:         obs.Ledger{BaselineSpMVSeconds: 1e-3},
	})
	appendConverted(j, featVec(t, 2), 1, 1, 0) // newer, already complete
	if res := l.Tick(); res.Harvested != 0 {
		t.Fatalf("harvested %d past a pending trace, want 0", res.Harvested)
	}
	if st := l.Status(); st.PendingTraceID != id {
		t.Fatalf("walk parked at %d, want %d", st.PendingTraceID, id)
	}

	// The ledger fills in (exactly what Adaptive.SpMV does post-decision);
	// the next tick harvests the parked trace AND the newer one behind it.
	j.Update(id, func(tr *obs.DecisionTrace) {
		tr.Ledger.RecordPost(1e-3)
	})
	if res := l.Tick(); res.Harvested != 2 {
		t.Fatalf("harvested %d after the ledger filled in, want 2", res.Harvested)
	}
}

// constSample builds a training sample with constant normalized targets for
// the ELL format.
func constSample(fv []float64, spmvNorm, convNorm float64) trainer.Sample {
	return trainer.Sample{
		Name:     "const",
		Features: fv,
		CSRTime:  1e-3,
		SpMVNorm: map[sparse.Format]float64{sparse.FmtCSR: 1, sparse.FmtELL: spmvNorm},
		ConvNorm: map[sparse.Format]float64{sparse.FmtELL: convNorm},
	}
}

func closeTo(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
