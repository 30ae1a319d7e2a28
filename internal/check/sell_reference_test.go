package check

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// referenceSELLLayout is the SELL-C-σ geometry written straight from its
// rule (DESIGN.md §6), with none of sparse.NewSELLLayout's shortcuts: at
// every rung of the ladder 64 → 4096 → 32768 it stable-sorts each σ-window
// by descending row length and counts the padded slots, and it takes the
// rung while the rung is at most half the matrix and cuts the slots of the
// rung below by more than 15 %. Each slice is as wide as its longest row.
func referenceSELLLayout(a *sparse.CSR) sparse.SELLLayout {
	const climbCut = 0.15
	rows, _ := a.Dims()
	ladder := []int{64, 4096, 32768}
	sigma := ladder[0]
	perm, widths, slots := referenceOrder(a, sigma)
	for _, s := range ladder[1:] {
		if 2*s > rows {
			break
		}
		p, w, n := referenceOrder(a, s)
		if float64(n) >= (1-climbCut)*float64(slots) {
			break
		}
		sigma, perm, widths, slots = s, p, w, n
	}
	ptr := make([]int, len(widths)+1)
	for s, w := range widths {
		ptr[s+1] = ptr[s] + int(w)*(min((s+1)*sparse.SELLC, rows)-s*sparse.SELLC)
	}
	return sparse.SELLLayout{Sigma: sigma, Perm: perm, SliceWidth: widths, SlicePtr: ptr}
}

// referenceOrder sorts every sigma-window of a's rows by descending length,
// ties in row order, and returns that order, each slice's width and the
// slots the order stores.
func referenceOrder(a *sparse.CSR, sigma int) (perm, widths []int32, slots int) {
	rows, _ := a.Dims()
	perm = make([]int32, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	for lo := 0; lo < rows; lo += sigma {
		slices.SortStableFunc(perm[lo:min(lo+sigma, rows)], func(p, q int32) int {
			return a.RowNNZ(int(q)) - a.RowNNZ(int(p))
		})
	}
	for lo := 0; lo < rows; lo += sparse.SELLC {
		hi := min(lo+sparse.SELLC, rows)
		w := 0
		for _, r := range perm[lo:hi] {
			w = max(w, a.RowNNZ(int(r)))
		}
		widths = append(widths, int32(w))
		slots += w * (hi - lo)
	}
	return perm, widths, slots
}

// sameSELLLayout reports how got differs from the reference layout of a.
func sameSELLLayout(t *testing.T, a *sparse.CSR, got sparse.SELLLayout) {
	t.Helper()
	want := referenceSELLLayout(a)
	switch {
	case got.Sigma != want.Sigma:
		t.Errorf("sigma %d, reference %d", got.Sigma, want.Sigma)
	case !slices.Equal(got.Perm, want.Perm):
		t.Error("row order differs from the reference")
	case !slices.Equal(got.SliceWidth, want.SliceWidth):
		t.Error("slice widths differ from the reference")
	case !slices.Equal(got.SlicePtr, want.SlicePtr):
		t.Error("slice offsets differ from the reference")
	}
}

// lengthsCSR builds a matrix whose row i holds lengths[i] entries, in the
// leading columns.
func lengthsCSR(t *testing.T, lengths []int) *sparse.CSR {
	t.Helper()
	cols := max(slices.Max(lengths), 1)
	ptr := make([]int, len(lengths)+1)
	var col []int32
	for i, n := range lengths {
		for j := range n {
			col = append(col, int32(j))
		}
		ptr[i+1] = len(col)
	}
	data := make([]float64, len(col))
	for k := range data {
		data[k] = 1 + float64(k%7)
	}
	a, err := sparse.NewCSR(len(lengths), cols, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// powerLawLengths draws Pareto row lengths (exponent 2.1, mean about 10,
// as matgen's power-law family does), capped at 4096.
func powerLawLengths(rows int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int, rows)
	for i := range lengths {
		n := int(10 * 0.1 / 1.1 / math.Pow(1-rng.Float64(), 1/1.1))
		lengths[i] = min(max(n, 1), 4096)
	}
	return lengths
}

// TestSELLLayoutMatchesReference: sparse.NewSELLLayout, which stops the σ
// climb without sorting a rung that cannot pay, writes the reference
// layout on matrices where every rung is reachable, where the windows are
// already in order, where one window is not, where the σ = 64 padding sits
// exactly on the 15 % cut, and on power laws that climb.
func TestSELLLayoutMatchesReference(t *testing.T) {
	fill := func(rows int, f func(i int) int) []int {
		l := make([]int, rows)
		for i := range l {
			l[i] = f(i)
		}
		return l
	}
	// One window of 64 rows holding a row of 77 entries and 63 of 29: the
	// first slice pads 7 × 48 slots of the window's 2240, exactly 15 %.
	edge := fill(130*64, func(i int) int {
		if i%64 == 0 {
			return 77
		}
		return 29
	})
	cases := []struct {
		name    string
		lengths []int
		climbs  bool
	}{
		{"equal-rows-70000", fill(70000, func(int) int { return 6 }), false},
		{"windows-in-order", fill(9000, func(i int) int { return 1 + (63-i%64)/8 }), false},
		{"one-ascending-window", fill(9000, func(i int) int {
			if i >= 4096 && i < 4160 {
				return 1 + (i-4096)/8
			}
			return 5
		}), false},
		{"padding-on-the-cut", edge, false},
		{"powerlaw-16384", powerLawLengths(16384, 16), true},
		{"powerlaw-70000", powerLawLengths(70000, 70), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := lengthsCSR(t, c.lengths)
			got := sparse.NewSELLLayout(a)
			sameSELLLayout(t, a, got)
			if climbed := got.Sigma > 64; climbed != c.climbs {
				t.Errorf("sigma %d: climbed %v, want %v", got.Sigma, climbed, c.climbs)
			}
		})
	}
	// The fixture must sit on the cut, or the case tests nothing.
	a := lengthsCSR(t, edge)
	if l := sparse.NewSELLLayout(a); float64(a.NNZ()) != (1-0.15)*float64(l.Slots()) {
		t.Error("padding-on-the-cut: σ = 64 padding is not exactly 15 % of the slots")
	}
}
