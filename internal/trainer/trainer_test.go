package trainer

import (
	"slices"
	"testing"
	"time"

	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// corpus builds a small mixed corpus for the tests (model oracle keeps it
// fast and deterministic).
func corpus(t testing.TB, count int) []matgen.Entry {
	t.Helper()
	entries, err := matgen.Corpus(matgen.CorpusConfig{
		Count: count, Seed: 7, MinSize: 300, MaxSize: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestCollectProducesValidSamples(t *testing.T) {
	entries := corpus(t, 24)
	samples, err := Collect(entries, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 24 {
		t.Fatalf("%d samples from 24 entries", len(samples))
	}
	for _, s := range samples {
		if s.CSRTime <= 0 {
			t.Errorf("%s: CSRTime %g", s.Name, s.CSRTime)
		}
		if got := s.SpMVNorm[sparse.FmtCSR]; got != 1 {
			t.Errorf("%s: CSR norm %g, want 1", s.Name, got)
		}
		if len(s.Features) == 0 {
			t.Errorf("%s: empty features", s.Name)
		}
		if s.FeatureNorm != 0 {
			t.Errorf("%s: FeatureNorm %g; collection times only what the models learn", s.Name, s.FeatureNorm)
		}
		for f, v := range s.ConvNorm {
			if v < 0 {
				t.Errorf("%s/%v: negative ConvNorm %g", s.Name, f, v)
			}
		}
	}
	// Every sample should support COO/HYB/CSR5 (always-valid formats).
	for _, s := range samples {
		for _, f := range []sparse.Format{sparse.FmtCOO, sparse.FmtHYB, sparse.FmtCSR5} {
			if _, ok := s.SpMVNorm[f]; !ok {
				t.Errorf("%s: missing always-valid format %v", s.Name, f)
			}
		}
	}
	// Some (not all) samples support DIA: the corpus mixes banded and
	// scatter families.
	diaCount := 0
	for _, s := range samples {
		if _, ok := s.SpMVNorm[sparse.FmtDIA]; ok {
			diaCount++
		}
	}
	if diaCount == 0 || diaCount == len(samples) {
		t.Errorf("DIA valid for %d of %d samples; expected a strict subset", diaCount, len(samples))
	}
}

// TestTrainedFormatsFollowTheOracle: the trainer has no menu of its own — a
// bundle covers exactly what the oracle priced. Through the measuring oracle
// that is a subset of sparse.MeasuredMenu and nothing else; the same calls
// through the model oracle still fit the study-only formats.
func TestTrainedFormatsFollowTheOracle(t *testing.T) {
	entries := corpus(t, 32)
	p := gbt.DefaultParams()
	p.NumRounds = 10
	train := func(o timing.Oracle) []sparse.Format {
		t.Helper()
		samples, err := Collect(entries, o)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := Train(samples, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(preds.ConvTime) != len(preds.Formats()) || len(preds.SpMVTime) != len(preds.Formats()) {
			t.Errorf("bundle holds %d/%d models for %v", len(preds.ConvTime), len(preds.SpMVTime), preds.Formats())
		}
		return preds.Formats()
	}

	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	opt := timing.DefaultMeasureOptions()
	opt.Reps = 1
	opt.Clock = clk
	measured := train(timing.NewMeasuredOracle(opt))
	for _, f := range measured {
		if f == sparse.FmtCSR || !slices.Contains(sparse.MeasuredMenu, f) {
			t.Errorf("measured bundle models %v, which is not on the measured menu", f)
		}
	}
	for _, f := range []sparse.Format{sparse.FmtHYB, sparse.FmtSELL, sparse.FmtJDS} {
		if !slices.Contains(measured, f) {
			t.Errorf("measured bundle %v lacks always-valid menu format %v", measured, f)
		}
	}

	model := train(timing.NewModelOracle())
	for _, f := range []sparse.Format{sparse.FmtCOO, sparse.FmtBSR, sparse.FmtCSR5} {
		if !slices.Contains(model, f) {
			t.Errorf("model-oracle bundle %v no longer fits %v", model, f)
		}
	}
}

func TestDatasetsShape(t *testing.T) {
	entries := corpus(t, 16)
	samples, err := Collect(entries, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	conv, spmv := Datasets(samples)
	for f, ds := range conv {
		if err := ds.Validate(); err != nil {
			t.Errorf("conv[%v]: %v", f, err)
		}
		if len(ds.Y) > len(samples) {
			t.Errorf("conv[%v]: %d rows from %d samples", f, len(ds.Y), len(samples))
		}
	}
	if _, ok := conv[sparse.FmtCSR]; ok {
		t.Error("CSR has a conversion dataset")
	}
	if len(spmv) == 0 {
		t.Fatal("no SpMV datasets")
	}
}

func TestTrainAndPredictEndToEnd(t *testing.T) {
	entries := corpus(t, 48)
	oracle := timing.NewModelOracle()
	samples, err := Collect(entries, oracle)
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.NumRounds = 40
	preds, err := Train(samples, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := preds.Validate(); err != nil {
		t.Fatal(err)
	}
	// DIA/ELL/BSR may miss the minSamples bar in a small corpus; the
	// always-valid formats must be present though.
	for _, f := range []sparse.Format{sparse.FmtCOO, sparse.FmtHYB, sparse.FmtCSR5} {
		if preds.ConvTime[f] == nil || preds.SpMVTime[f] == nil {
			t.Fatalf("always-valid format %v untrained", f)
		}
	}
	// In-sample predictions should be in the right ballpark: mean relative
	// error under 50% for the SpMV models (the model-oracle targets are
	// smooth functions of the features).
	for f, m := range preds.SpMVTime {
		var pred, truth []float64
		for _, s := range samples {
			if v, ok := s.SpMVNorm[f]; ok {
				pred = append(pred, m.Predict(s.Features))
				truth = append(truth, v)
			}
		}
		if got := gbt.MeanRelativeError(pred, truth, 1e-3); got > 0.5 {
			t.Errorf("SpMV model %v in-sample relative error %.2f", f, got)
		}
	}
}

func TestTrainErrorsWhenNoData(t *testing.T) {
	if _, err := Collect(nil, timing.NewModelOracle()); err == nil {
		t.Error("Collect accepted empty corpus")
	}
	entries := corpus(t, 8)
	samples, err := Collect(entries, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(samples, gbt.DefaultParams(), 10000); err == nil {
		t.Error("Train accepted impossible minSamples")
	}
}

func TestEvaluateProducesTable5(t *testing.T) {
	entries := corpus(t, 40)
	samples, err := Collect(entries, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.NumRounds = 30
	rows, err := Evaluate(samples, 5, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no evaluation rows")
	}
	for _, r := range rows {
		if r.NumValid <= 0 {
			t.Errorf("%v: NumValid %d", r.Format, r.NumValid)
		}
		if r.ConvError < 0 || r.SpMVError < 0 {
			t.Errorf("%v: negative errors %g/%g", r.Format, r.ConvError, r.SpMVError)
		}
		// On the 3%-noise model oracle, CV errors should stay moderate.
		if r.ConvError > 1.5 || r.SpMVError > 1.5 {
			t.Errorf("%v: CV errors %.2f/%.2f implausibly high", r.Format, r.ConvError, r.SpMVError)
		}
	}
	if _, err := Evaluate(samples[:2], 5, p, 1); err == nil {
		t.Error("Evaluate accepted fewer samples than folds")
	}
}

// BenchmarkTrain is the fit every `ocsd -train` boot and benchmark run
// pays: the default corpus size and boosting parameters.
func BenchmarkTrain(b *testing.B) {
	entries, err := matgen.Corpus(matgen.CorpusConfig{Count: 96, Seed: 42, MinSize: 500, MaxSize: 6000})
	if err != nil {
		b.Fatal(err)
	}
	samples, err := Collect(entries, timing.NewModelOracle())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples, gbt.DefaultParams(), 5); err != nil {
			b.Fatal(err)
		}
	}
}
