// Package gbt implements gradient-boosted regression trees in the style of
// XGBoost: second-order (Newton) boosting with the regularized split-gain
// criterion, shrinkage, row/column subsampling, gain-based feature
// importance, k-fold cross validation and grid search. The paper builds its
// normalized-time predictors with XGBoost; this package is the from-scratch
// substitute (see DESIGN.md).
package gbt

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Params are the boosting hyperparameters. Zero values are replaced by the
// defaults in fill().
type Params struct {
	// NumRounds is the number of boosting rounds (trees).
	NumRounds int `json:"num_rounds"`
	// MaxDepth bounds tree depth; depth 0 is a single leaf.
	MaxDepth int `json:"max_depth"`
	// LearningRate (eta) shrinks each tree's contribution.
	LearningRate float64 `json:"learning_rate"`
	// Lambda is the L2 regularization on leaf weights.
	Lambda float64 `json:"lambda"`
	// Gamma is the minimum split gain (complexity penalty per split).
	Gamma float64 `json:"gamma"`
	// MinChildWeight is the minimum Hessian mass per child.
	MinChildWeight float64 `json:"min_child_weight"`
	// MinSamplesLeaf is the minimum instance count per leaf.
	MinSamplesLeaf int `json:"min_samples_leaf"`
	// SubsampleRows is the fraction of instances sampled per tree (1 = all).
	SubsampleRows float64 `json:"subsample_rows"`
	// SubsampleCols is the fraction of features sampled per tree (1 = all).
	SubsampleCols float64 `json:"subsample_cols"`
	// Seed drives the subsampling.
	Seed int64 `json:"seed"`
	// EarlyStopRounds stops training when the validation loss has not
	// improved for this many rounds (0 disables; requires a validation set).
	EarlyStopRounds int `json:"early_stop_rounds"`
	// Method selects split finding: MethodExact (default) or MethodHist
	// (quantile-binned histograms, for corpus-scale training).
	Method Method `json:"method"`
	// MaxBins bounds the quantile bins per feature in hist mode (default 32).
	MaxBins int `json:"max_bins"`
}

// DefaultParams are sensible defaults for the ~23-feature datasets the
// selector trains on.
func DefaultParams() Params {
	return Params{
		NumRounds:      80,
		MaxDepth:       4,
		LearningRate:   0.1,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
		MinSamplesLeaf: 2,
		SubsampleRows:  1.0,
		SubsampleCols:  1.0,
	}
}

func (p Params) fill() Params {
	d := DefaultParams()
	if p.NumRounds <= 0 {
		p.NumRounds = d.NumRounds
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = d.MaxDepth
	}
	if p.LearningRate <= 0 {
		p.LearningRate = d.LearningRate
	}
	if p.Lambda < 0 {
		p.Lambda = d.Lambda
	}
	if p.MinChildWeight <= 0 {
		p.MinChildWeight = d.MinChildWeight
	}
	if p.MinSamplesLeaf <= 0 {
		p.MinSamplesLeaf = d.MinSamplesLeaf
	}
	if p.SubsampleRows <= 0 || p.SubsampleRows > 1 {
		p.SubsampleRows = 1
	}
	if p.SubsampleCols <= 0 || p.SubsampleCols > 1 {
		p.SubsampleCols = 1
	}
	if p.MaxBins <= 0 {
		p.MaxBins = 32
	}
	return p
}

// Model is a trained boosted ensemble.
type Model struct {
	Base       float64   `json:"base"` // initial prediction (target mean)
	Trees      []*Tree   `json:"trees"`
	Importance []float64 `json:"importance"` // total split gain per feature
	NumFeature int       `json:"num_features"`
	Rounds     int       `json:"rounds"` // rounds actually trained (early stop)
}

// Dataset couples a feature matrix with its targets.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Validate checks shape consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("gbt: %d rows but %d targets", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return fmt.Errorf("gbt: empty dataset")
	}
	w := len(d.X[0])
	for i, r := range d.X {
		if len(r) != w {
			return fmt.Errorf("gbt: row %d has %d features, want %d", i, len(r), w)
		}
	}
	return nil
}

// Train fits a boosted regression ensemble with squared loss. valid may be
// nil; when provided together with Params.EarlyStopRounds, training stops
// once the validation RMSE stops improving and the model is truncated to
// its best round.
func Train(train *Dataset, valid *Dataset, p Params) (*Model, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if valid != nil {
		if err := valid.Validate(); err != nil {
			return nil, fmt.Errorf("gbt: validation set: %w", err)
		}
	}
	p = p.fill()
	if p.Method != MethodExact && p.Method != MethodHist {
		return nil, errUnknownMethod(p.Method)
	}
	n := len(train.Y)
	d := len(train.X[0])
	rng := rand.New(rand.NewSource(p.Seed))
	var bins *binner
	var binned [][]uint16
	var order [][]int32
	if p.Method == MethodHist {
		bins = newBinner(train.X, p.MaxBins)
		binned = bins.binAll(train.X)
	} else {
		order = presort(train.X)
	}

	var base float64
	for _, y := range train.Y {
		base += y
	}
	base /= float64(n)

	m := &Model{Base: base, NumFeature: d, Importance: make([]float64, d)}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	var validPred []float64
	if valid != nil {
		validPred = make([]float64, len(valid.Y))
		for i := range validPred {
			validPred[i] = base
		}
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	bestRMSE := math.Inf(1)
	bestRound := 0
	sinceBest := 0

	for round := 0; round < p.NumRounds; round++ {
		// Squared loss: grad = pred - y, hess = 1.
		for i := range grad {
			grad[i] = pred[i] - train.Y[i]
			hess[i] = 1
		}
		rows := sampleIndices(n, p.SubsampleRows, rng)
		cols := sampleIndices(d, p.SubsampleCols, rng)
		var tree *Tree
		if p.Method == MethodHist {
			hb := &histBuilder{binned: binned, bins: bins, grad: grad, hess: hess, cols: cols, p: p, importance: m.Importance}
			tree = &Tree{Root: hb.build(rows, 0)}
		} else {
			b := &treeBuilder{x: train.X, grad: grad, hess: hess, cols: cols, p: p, importance: m.Importance}
			tree = &Tree{Root: b.build(b.rootLists(order, rows), 0)}
		}
		m.Trees = append(m.Trees, tree)
		for i := range pred {
			pred[i] += tree.Predict(train.X[i])
		}
		if valid != nil && p.EarlyStopRounds > 0 {
			var sse float64
			for i := range validPred {
				validPred[i] += tree.Predict(valid.X[i])
				e := validPred[i] - valid.Y[i]
				sse += e * e
			}
			rmse := math.Sqrt(sse / float64(len(valid.Y)))
			if rmse < bestRMSE-1e-12 {
				bestRMSE = rmse
				bestRound = round + 1
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= p.EarlyStopRounds {
					m.Trees = m.Trees[:bestRound]
					break
				}
			}
		}
	}
	m.Rounds = len(m.Trees)
	return m, nil
}

// sampleIndices returns a sorted-free sample of round(frac*n) indices
// without replacement, or all indices when frac >= 1.
func sampleIndices(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// Predict returns the model output for one instance.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.NumFeature {
		panic(fmt.Sprintf("gbt: %d features, model wants %d", len(x), m.NumFeature))
	}
	out := m.Base
	for _, t := range m.Trees {
		out += t.Predict(x)
	}
	return out
}

// PredictBatch predicts every row of x.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// TopFeatures returns feature indices sorted by descending importance.
func (m *Model) TopFeatures() []int {
	idx := make([]int, len(m.Importance))
	for i := range idx {
		idx[i] = i
	}
	// insertion sort by importance descending (feature counts are tiny)
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && m.Importance[idx[j-1]] < m.Importance[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	return idx
}

// MarshalJSON / model persistence: Model is a plain JSON document.

// Save serializes the model to JSON.
func (m *Model) Save() ([]byte, error) {
	return json.Marshal(m)
}

// Load deserializes a model produced by Save.
func Load(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("gbt: loading model: %w", err)
	}
	for i, t := range m.Trees {
		if t == nil || t.Root == nil {
			return nil, fmt.Errorf("gbt: loaded model tree %d is nil", i)
		}
	}
	return &m, nil
}

// RMSE computes the root-mean-squared error of predictions against targets.
func RMSE(pred, y []float64) float64 {
	if len(pred) != len(y) || len(y) == 0 {
		return math.NaN()
	}
	var sse float64
	for i := range y {
		e := pred[i] - y[i]
		sse += e * e
	}
	return math.Sqrt(sse / float64(len(y)))
}

// MeanRelativeError computes mean(|pred-y| / max(|y|, floor)), the paper's
// accuracy metric for the normalized-time predictors. floor guards
// near-zero targets.
func MeanRelativeError(pred, y []float64, floor float64) float64 {
	if len(pred) != len(y) || len(y) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range y {
		den := math.Abs(y[i])
		if den < floor {
			den = floor
		}
		sum += math.Abs(pred[i]-y[i]) / den
	}
	return sum / float64(len(y))
}
