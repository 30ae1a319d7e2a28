package gbt

import "sort"

// Node is one node of a regression tree. Leaves have Feature == -1 and
// carry Weight; internal nodes route instances with value < Split to Left.
type Node struct {
	Feature int     `json:"feature"` // -1 for leaves
	Split   float64 `json:"split"`
	Weight  float64 `json:"weight"` // leaf output
	Gain    float64 `json:"gain"`   // split gain, for feature importance
	Left    *Node   `json:"left,omitempty"`
	Right   *Node   `json:"right,omitempty"`
}

// Tree is one member of the boosted ensemble.
type Tree struct {
	Root *Node `json:"root"`
}

// Predict routes one instance down the tree.
func (t *Tree) Predict(x []float64) float64 {
	n := t.Root
	for n.Feature >= 0 {
		if x[n.Feature] < n.Split {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Weight
}

// treeBuilder carries the state shared across the recursive construction of
// one tree: the training matrix, per-instance gradients and Hessians, and
// the hyperparameters.
type treeBuilder struct {
	x          [][]float64
	grad, hess []float64
	cols       []int // candidate feature subset for this tree
	p          Params
	importance []float64 // accumulated split gain per feature
}

// presort returns, for every feature, the instance indices in ascending
// order of that feature's value, ties in index order. The feature matrix
// does not change between boosting rounds, so one sort per feature per model
// replaces one per feature per tree node: a node's instances in feature
// order are the root's list filtered down the tree (see split).
func presort(x [][]float64) [][]int32 {
	order := make([][]int32, len(x[0]))
	for f := range order {
		ord := make([]int32, len(x))
		for i := range ord {
			ord[i] = int32(i)
		}
		sort.SliceStable(ord, func(a, c int) bool { return x[ord[a]][f] < x[ord[c]][f] })
		order[f] = ord
	}
	return order
}

// rootLists returns the per-feature sorted instance lists of a tree grown on
// rows, for the tree's candidate features (the rest stay nil): the presorted
// order itself when the tree sees every instance, its sampled subset
// otherwise.
func (b *treeBuilder) rootLists(order [][]int32, rows []int) [][]int32 {
	lists := make([][]int32, len(order))
	if len(rows) == len(b.x) {
		for _, f := range b.cols {
			lists[f] = order[f]
		}
		return lists
	}
	sampled := make([]bool, len(b.x))
	for _, i := range rows {
		sampled[i] = true
	}
	for _, f := range b.cols {
		l := make([]int32, 0, len(rows))
		for _, i := range order[f] {
			if sampled[i] {
				l = append(l, i)
			}
		}
		lists[f] = l
	}
	return lists
}

// leafWeight is the Newton-step optimal leaf value -G/(H+lambda).
func (b *treeBuilder) leafWeight(g, h float64) float64 {
	return -g / (h + b.p.Lambda)
}

// scoreTerm is the structure-score contribution G^2/(H+lambda) of one side.
func (b *treeBuilder) scoreTerm(g, h float64) float64 {
	return g * g / (h + b.p.Lambda)
}

// splitCandidate holds the best split found for a node; left and right are
// the histogram builder's partition of the node's instances.
type splitCandidate struct {
	feature     int
	split       float64
	gain        float64
	left, right []int
}

// build constructs the subtree over one node's instances: sorted holds them
// once per candidate feature, in that feature's order.
func (b *treeBuilder) build(sorted [][]int32, depth int) *Node {
	node := sorted[b.cols[0]] // any list enumerates the node
	var gSum, hSum float64
	for _, i := range node {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	leaf := func() *Node {
		return &Node{Feature: -1, Weight: b.p.LearningRate * b.leafWeight(gSum, hSum)}
	}
	if depth >= b.p.MaxDepth || len(node) < 2*b.p.MinSamplesLeaf || hSum < 2*b.p.MinChildWeight {
		return leaf()
	}
	best := b.bestSplit(sorted, gSum, hSum)
	if best == nil {
		return leaf()
	}
	left, right := b.split(sorted, best)
	if len(left[b.cols[0]]) == 0 || len(right[b.cols[0]]) == 0 {
		return leaf() // the midpoint rounded onto one of its neighbours
	}
	b.importance[best.feature] += best.gain
	return &Node{
		Feature: best.feature,
		Split:   best.split,
		Gain:    best.gain,
		Left:    b.build(left, depth+1),
		Right:   b.build(right, depth+1),
	}
}

// bestSplit scans every candidate feature with the exact greedy algorithm:
// walk the node's instances in feature order and evaluate the XGBoost gain
//
//	1/2 [ GL^2/(HL+λ) + GR^2/(HR+λ) − G^2/(H+λ) ] − γ
//
// at every boundary between distinct values. Returns nil when no split
// clears the Gamma threshold and the child constraints.
func (b *treeBuilder) bestSplit(sorted [][]int32, gSum, hSum float64) *splitCandidate {
	var best *splitCandidate
	parentScore := b.scoreTerm(gSum, hSum)
	for _, f := range b.cols {
		ord := sorted[f]
		var gl, hl float64
		for k := 0; k < len(ord)-1; k++ {
			i := ord[k]
			gl += b.grad[i]
			hl += b.hess[i]
			v, next := b.x[i][f], b.x[ord[k+1]][f]
			if v == next {
				continue // cannot split between identical values
			}
			nl := k + 1
			nr := len(ord) - nl
			if nl < b.p.MinSamplesLeaf || nr < b.p.MinSamplesLeaf {
				continue
			}
			gr := gSum - gl
			hr := hSum - hl
			if hl < b.p.MinChildWeight || hr < b.p.MinChildWeight {
				continue
			}
			gain := 0.5*(b.scoreTerm(gl, hl)+b.scoreTerm(gr, hr)-parentScore) - b.p.Gamma
			if gain <= 0 {
				continue
			}
			if best == nil || gain > best.gain {
				best = &splitCandidate{feature: f, split: (v + next) / 2, gain: gain}
			}
		}
	}
	return best
}

// split partitions every candidate feature's sorted list by the winning
// split. The partition is stable, so each child's lists are still in
// feature order.
func (b *treeBuilder) split(sorted [][]int32, best *splitCandidate) (left, right [][]int32) {
	left, right = make([][]int32, len(sorted)), make([][]int32, len(sorted))
	node := sorted[b.cols[0]]
	nl := 0
	for _, i := range node {
		if b.x[i][best.feature] < best.split {
			nl++
		}
	}
	for _, f := range b.cols {
		l, r := make([]int32, 0, nl), make([]int32, 0, len(node)-nl)
		for _, i := range sorted[f] {
			if b.x[i][best.feature] < best.split {
				l = append(l, i)
			} else {
				r = append(r, i)
			}
		}
		left[f], right[f] = l, r
	}
	return left, right
}
