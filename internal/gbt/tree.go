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
// one tree: the training matrix and per-instance gradients and Hessians.
type treeBuilder struct {
	x          [][]float64
	grad, hess []float64
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

// leafWeight is the Newton-step optimal leaf value -G/(H+lambda).
func leafWeight(g, h float64) float64 {
	return -g / (h + lambda)
}

// scoreTerm is the structure-score contribution G^2/(H+lambda) of one side.
func scoreTerm(g, h float64) float64 {
	return g * g / (h + lambda)
}

// splitCandidate holds the best split found for a node.
type splitCandidate struct {
	feature int
	split   float64
	gain    float64
}

// build constructs the subtree over one node's instances: sorted holds them
// once per feature, in that feature's order.
func (b *treeBuilder) build(sorted [][]int32, depth int) *Node {
	node := sorted[0] // any list enumerates the node
	var gSum, hSum float64
	for _, i := range node {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	leaf := func() *Node {
		return &Node{Feature: -1, Weight: learningRate * leafWeight(gSum, hSum)}
	}
	if depth >= maxDepth || len(node) < 2*minSamplesLeaf || hSum < 2*minChildWeight {
		return leaf()
	}
	best := b.bestSplit(sorted, gSum, hSum)
	if best == nil {
		return leaf()
	}
	left, right := b.split(sorted, best)
	if len(left[0]) == 0 || len(right[0]) == 0 {
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

// bestSplit scans every feature with the exact greedy algorithm: walk the
// node's instances in feature order and evaluate the XGBoost gain
//
//	1/2 [ GL^2/(HL+λ) + GR^2/(HR+λ) − G^2/(H+λ) ]
//
// at every boundary between distinct values. Returns nil when no split has
// positive gain within the child constraints.
func (b *treeBuilder) bestSplit(sorted [][]int32, gSum, hSum float64) *splitCandidate {
	var best *splitCandidate
	parentScore := scoreTerm(gSum, hSum)
	for f, ord := range sorted {
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
			if nl < minSamplesLeaf || nr < minSamplesLeaf {
				continue
			}
			gr := gSum - gl
			hr := hSum - hl
			if hl < minChildWeight || hr < minChildWeight {
				continue
			}
			gain := 0.5 * (scoreTerm(gl, hl) + scoreTerm(gr, hr) - parentScore)
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

// split partitions every feature's sorted list by the winning split. The
// partition is stable, so each child's lists are still in feature order.
func (b *treeBuilder) split(sorted [][]int32, best *splitCandidate) (left, right [][]int32) {
	left, right = make([][]int32, len(sorted)), make([][]int32, len(sorted))
	nl := 0
	for _, i := range sorted[0] {
		if b.x[i][best.feature] < best.split {
			nl++
		}
	}
	for f, ord := range sorted {
		l, r := make([]int32, 0, nl), make([]int32, 0, len(ord)-nl)
		for _, i := range ord {
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
