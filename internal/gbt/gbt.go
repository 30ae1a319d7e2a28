// Package gbt implements gradient-boosted regression trees in the style of
// XGBoost: second-order (Newton) boosting with the regularized split-gain
// criterion, shrinkage, gain-based feature importance and k-fold cross
// validation. The paper builds its normalized-time predictors with XGBoost;
// this package is the from-scratch substitute (see DESIGN.md).
package gbt

import (
	"encoding/json"
	"fmt"
	"math"
)

// The tree hyperparameters every model is fitted with: sensible for the
// ~23-feature datasets the selector trains on, and never varied.
const (
	// maxDepth bounds tree depth; depth 0 is a single leaf.
	maxDepth = 4
	// learningRate (eta) shrinks each tree's contribution.
	learningRate = 0.1
	// lambda is the L2 regularization on leaf weights.
	lambda = 1.0
	// minChildWeight is the minimum Hessian mass per child.
	minChildWeight = 1.0
	// minSamplesLeaf is the minimum instance count per leaf.
	minSamplesLeaf = 2
)

// Params are the boosting hyperparameters a caller chooses. Zero values are
// replaced by the defaults.
type Params struct {
	// NumRounds is the number of boosting rounds (trees).
	NumRounds int `json:"num_rounds"`
}

// DefaultParams are the parameters the selector's bundles are trained with.
func DefaultParams() Params {
	return Params{NumRounds: 80}
}

// Model is a trained boosted ensemble.
type Model struct {
	Base       float64   `json:"base"` // initial prediction (target mean)
	Trees      []*Tree   `json:"trees"`
	Importance []float64 `json:"importance"` // total split gain per feature
	NumFeature int       `json:"num_features"`
	Rounds     int       `json:"rounds"` // len(Trees)
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

// Train fits a boosted regression ensemble with squared loss.
func Train(train *Dataset, p Params) (*Model, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if p.NumRounds <= 0 {
		p = DefaultParams()
	}
	n := len(train.Y)
	d := len(train.X[0])
	order := presort(train.X)

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
	grad := make([]float64, n)
	hess := make([]float64, n)
	for round := 0; round < p.NumRounds; round++ {
		// Squared loss: grad = pred - y, hess = 1.
		for i := range grad {
			grad[i] = pred[i] - train.Y[i]
			hess[i] = 1
		}
		b := &treeBuilder{x: train.X, grad: grad, hess: hess, importance: m.Importance}
		tree := &Tree{Root: b.build(order, 0)}
		m.Trees = append(m.Trees, tree)
		for i := range pred {
			pred[i] += tree.Predict(train.X[i])
		}
	}
	m.Rounds = len(m.Trees)
	return m, nil
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

// Save serializes the model to JSON.
func (m *Model) Save() ([]byte, error) {
	return json.Marshal(m)
}

// Load deserializes a model produced by Save. Every node is checked, so a
// model that loads cannot panic in Predict on a vector of its width: an
// internal node needs both children and a feature below num_features.
func Load(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("gbt: loading model: %w", err)
	}
	for i, t := range m.Trees {
		if t == nil || t.Root == nil {
			return nil, fmt.Errorf("gbt: loaded model tree %d is nil", i)
		}
		if err := checkNode(t.Root, m.NumFeature); err != nil {
			return nil, fmt.Errorf("gbt: loaded model tree %d: %w", i, err)
		}
	}
	return &m, nil
}

// checkNode validates the subtree under n against a feature width.
func checkNode(n *Node, width int) error {
	if n.Feature < 0 {
		return nil
	}
	if n.Feature >= width {
		return fmt.Errorf("node splits on feature %d of %d", n.Feature, width)
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("internal node on feature %d lacks a child", n.Feature)
	}
	if err := checkNode(n.Left, width); err != nil {
		return err
	}
	return checkNode(n.Right, width)
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
