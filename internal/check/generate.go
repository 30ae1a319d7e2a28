package check

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sparse"
)

// Case is one generated matrix with a descriptive name for test output.
type Case struct {
	Name string
	A    *sparse.CSR
}

// nonzero draws a value that is never exactly zero (stored zeros would be
// dropped by the padded formats' round trips and break bit-identity).
func nonzero(rng *rand.Rand) float64 {
	v := rng.NormFloat64()
	if v == 0 {
		return 0.5
	}
	return v
}

// rowsToCSR assembles a CSR matrix from per-row column lists. Columns are
// sorted and deduplicated per row; values come from rng and are never zero.
func rowsToCSR(rows, cols int, rowCols [][]int, rng *rand.Rand) (*sparse.CSR, error) {
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		cs := append([]int(nil), rowCols[i]...)
		sort.Ints(cs)
		prev := -1
		for _, c := range cs {
			if c == prev {
				continue
			}
			prev = c
			col = append(col, int32(c))
			data = append(data, nonzero(rng))
		}
		ptr[i+1] = len(data)
	}
	return sparse.NewCSR(rows, cols, ptr, col, data)
}

// distinctColumns samples k distinct columns from [0, cols).
func distinctColumns(cols, k int, rng *rand.Rand) []int {
	if k > cols {
		k = cols
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		c := rng.Intn(cols)
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// Pathological generates the shapes where format conversions historically
// go wrong: empty rows (SELL row permutation and slice widths),
// a single dense row (nnz-balanced partitions collapse to one range),
// wide bands (DIA's diagonal bookkeeping), power-law rows (SELL's sorting
// windows), duplicate-free random scatter, degenerate
// 1×N / N×1 shapes, and the all-zero matrix. Sizes are chosen so the
// larger cases cross the parallel-work threshold and exercise the
// team-parallel conversion paths, while the small ones pin the serial
// fallbacks. Deterministic for a given seed.
func Pathological(seed int64) []Case {
	rng := rand.New(rand.NewSource(seed))
	var cases []Case
	add := func(name string, a *sparse.CSR, err error) {
		if err != nil {
			panic(fmt.Sprintf("check: generating %s: %v", name, err))
		}
		cases = append(cases, Case{Name: name, A: a})
	}

	// Empty rows: only every third row is populated; the first and last
	// rows are empty, which is where row-cursor seeding bugs live.
	{
		rows, cols := 1500, 1500
		rc := make([][]int, rows)
		for i := 1; i < rows-1; i += 3 {
			rc[i] = distinctColumns(cols, 6, rng)
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("empty-rows", a, err)
	}

	// Single dense row in an otherwise tridiagonal matrix: one row holds
	// every column, so weight-balanced partitions give one worker a single
	// gigantic row.
	{
		rows, cols := 1800, 1800
		rc := make([][]int, rows)
		for i := 0; i < rows; i++ {
			for j := i - 1; j <= i+1; j++ {
				if j >= 0 && j < cols {
					rc[i] = append(rc[i], j)
				}
			}
		}
		dense := make([]int, cols)
		for j := range dense {
			dense[j] = j
		}
		rc[rows/2] = dense
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("single-dense-row", a, err)
	}

	// Wide band: 25 diagonals, enough nonzeros for every parallel path.
	{
		rows, cols := 1200, 1200
		rc := make([][]int, rows)
		for i := 0; i < rows; i++ {
			for j := i - 12; j <= i+12; j++ {
				if j >= 0 && j < cols {
					rc[i] = append(rc[i], j)
				}
			}
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("wide-band", a, err)
	}

	// Power-law row lengths: a few huge rows, a long tail of tiny ones —
	// the shape that stresses SELL's slice widths and the fill limits.
	{
		rows, cols := 2000, 2000
		rc := make([][]int, rows)
		for i := 0; i < rows; i++ {
			deg := 1 + int(float64(3)/(0.02+rng.Float64()))
			if deg > cols {
				deg = cols
			}
			rc[i] = distinctColumns(cols, deg, rng)
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("power-law", a, err)
	}

	// Duplicate-free random scatter, rectangular.
	{
		rows, cols := 900, 1100
		rc := make([][]int, rows)
		for i := 0; i < rows; i++ {
			rc[i] = distinctColumns(cols, 8, rng)
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("random", a, err)
	}

	// 1×N row vector: a single row above the parallel threshold.
	{
		rc := [][]int{distinctColumns(8000, 6000, rng)}
		a, err := rowsToCSR(1, 8000, rc, rng)
		add("row-vector", a, err)
	}

	// N×1 column vector: thousands of rows of width ≤ 1.
	{
		rows := 8000
		rc := make([][]int, rows)
		for i := 0; i < rows; i++ {
			if rng.Float64() < 0.7 {
				rc[i] = []int{0}
			}
		}
		a, err := rowsToCSR(rows, 1, rc, rng)
		add("col-vector", a, err)
	}

	// All-zero matrix: every conversion must survive nnz == 0.
	{
		a, err := rowsToCSR(400, 700, make([][]int, 400), rng)
		add("all-zero", a, err)
	}

	// Fully dense tiny matrix: SELL width == cols, DIA stores every
	// diagonal — the opposite extreme from scatter.
	{
		rows, cols := 40, 40
		rc := make([][]int, rows)
		full := make([]int, cols)
		for j := range full {
			full[j] = j
		}
		for i := range rc {
			rc[i] = full
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("dense-tiny", a, err)
	}

	// Ragged rows cycling 0..16 entries: interleaves empty rows with long
	// ones inside every SELL sorting window and slice.
	{
		rows, cols := 2600, 2600
		rc := make([][]int, rows)
		for i := 0; i < rows; i++ {
			rc[i] = distinctColumns(cols, i%17, rng)
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("ragged", a, err)
	}

	return cases
}

// RandomCSR generates one duplicate-free random matrix with dimensions and
// density drawn from rng, for property-style sweeps over many seeds.
func RandomCSR(rng *rand.Rand) *sparse.CSR {
	rows := 1 + rng.Intn(400)
	cols := 1 + rng.Intn(400)
	maxDeg := cols
	if maxDeg > 12 {
		maxDeg = 12
	}
	rc := make([][]int, rows)
	for i := 0; i < rows; i++ {
		rc[i] = distinctColumns(cols, rng.Intn(maxDeg+1), rng)
	}
	a, err := rowsToCSR(rows, cols, rc, rng)
	if err != nil {
		panic(fmt.Sprintf("check: RandomCSR: %v", err))
	}
	return a
}
