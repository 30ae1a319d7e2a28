// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index). Each
// experiment is a pure function of a Context — a corpus, a cost oracle, and
// a predictor bundle trained on a *separate* training corpus so the
// reported numbers are out-of-sample — and returns a typed result with a
// Render method that prints the same rows the paper reports.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// Options configures a Context build.
type Options struct {
	// TrainCount / EvalCount are the corpus sizes. The training corpus
	// fits the predictors; every experiment reports on the disjoint
	// evaluation corpus.
	TrainCount, EvalCount int
	// MinSize / MaxSize bound matrix scale.
	MinSize, MaxSize int
	// Seed drives corpus generation (train and eval derive distinct
	// sub-seeds).
	Seed int64
	// Params are the GBT hyperparameters.
	Params gbt.Params
	// Cfg is the selector configuration (K, TH, limits).
	Cfg core.Config
	// Stage1Seconds / Stage2ModelSeconds model the constant inference cost
	// of the two stages in the cost simulations (the paper reports ~2ms
	// and ~5ms for its ARIMA and XGBoost models; our Go models are
	// cheaper). Feature-extraction cost comes from the oracle.
	Stage1Seconds, Stage2ModelSeconds float64
}

// DefaultOptions is the configuration used by the committed EXPERIMENTS.md.
func DefaultOptions() Options {
	p := gbt.DefaultParams()
	p.NumRounds = 60
	return Options{
		TrainCount:         96,
		EvalCount:          48,
		MinSize:            500,
		MaxSize:            6000,
		Seed:               42,
		Params:             p,
		Cfg:                core.DefaultConfig(),
		Stage1Seconds:      20e-6,
		Stage2ModelSeconds: 50e-6,
	}
}

// Context carries everything the experiments need.
type Context struct {
	Opt    Options
	Oracle timing.Oracle

	TrainEntries []matgen.Entry
	EvalEntries  []matgen.Entry
	TrainSamples []trainer.Sample
	EvalSamples  []trainer.Sample

	Preds *core.Predictors

	// simCache memoizes app simulations; several experiments share them.
	simCache map[AppKind]*AppSim
}

// NewContext generates the corpora, collects costs through the oracle, and
// trains the predictor bundle on the training half.
func NewContext(opt Options, oracle timing.Oracle) (*Context, error) {
	if opt.TrainCount <= 0 || opt.EvalCount <= 0 {
		return nil, fmt.Errorf("experiments: corpus counts %d/%d", opt.TrainCount, opt.EvalCount)
	}
	trainEntries, err := matgen.Corpus(matgen.CorpusConfig{
		Count: opt.TrainCount, Seed: opt.Seed, MinSize: opt.MinSize, MaxSize: opt.MaxSize,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: training corpus: %w", err)
	}
	evalEntries, err := matgen.Corpus(matgen.CorpusConfig{
		Count: opt.EvalCount, Seed: opt.Seed + 1, MinSize: opt.MinSize, MaxSize: opt.MaxSize,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: evaluation corpus: %w", err)
	}
	trainSamples, err := collect(trainEntries, oracle)
	if err != nil {
		return nil, fmt.Errorf("experiments: collecting training samples: %w", err)
	}
	evalSamples, err := collect(evalEntries, oracle)
	if err != nil {
		return nil, fmt.Errorf("experiments: collecting evaluation samples: %w", err)
	}
	preds, err := trainer.Train(trainSamples, opt.Params, 5)
	if err != nil {
		return nil, fmt.Errorf("experiments: training predictors: %w", err)
	}
	return &Context{
		Opt:          opt,
		Oracle:       oracle,
		TrainEntries: trainEntries,
		EvalEntries:  evalEntries,
		TrainSamples: trainSamples,
		EvalSamples:  evalSamples,
		Preds:        preds,
	}, nil
}

// collect is trainer.Collect plus every sample's FeatureNorm (collectOne).
func collect(entries []matgen.Entry, oracle timing.Oracle) ([]trainer.Sample, error) {
	samples, err := trainer.Collect(entries, oracle)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*sparse.CSR, len(entries))
	for _, e := range entries {
		byName[e.Spec.Name] = e.Matrix
	}
	for i := range samples {
		samples[i].FeatureNorm = oracle.FeatureTime(byName[samples[i].Name]) / samples[i].CSRTime
	}
	return samples, nil
}

// collectOne is trainer.CollectOne plus the sample's FeatureNorm, the
// feature-extraction cost the cost simulations charge to T_predict; the
// trainer leaves it unset because no model learns it.
func collectOne(name string, m *sparse.CSR, oracle timing.Oracle) (trainer.Sample, error) {
	s, err := trainer.CollectOne(name, m, oracle)
	if err != nil {
		return s, err
	}
	s.FeatureNorm = oracle.FeatureTime(m) / s.CSRTime
	return s, nil
}

// geomean returns the geometric mean of strictly positive values (the
// standard aggregate for speedups); zero for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(sep, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// decideOC runs the trained stage-2 decision for an eval sample.
func (c *Context) decideOC(entry matgen.Entry, s *trainer.Sample, remaining float64) core.Decision {
	fs := features.FromVector(s.Features)
	blocks := features.CountBlocks(entry.Matrix, c.Opt.Cfg.Lim.BSRBlockSize)
	return c.Preds.Decide(fs, blocks, remaining, c.Opt.Cfg.Lim, c.Opt.Cfg.Margin)
}

// featureSet rebuilds the feature Set of a sample.
func featureSet(s *trainer.Sample) *features.Set {
	return features.FromVector(s.Features)
}

// blocksOf counts a matrix's BSR blocks at the conversion block size.
func blocksOf(m *sparse.CSR, bs int) int {
	return features.CountBlocks(m, bs)
}

// formatName renders a format for tables.
func formatName(f sparse.Format) string { return f.String() }
