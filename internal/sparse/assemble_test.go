package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// referenceAssemble is the specification CSRFromTriplets is held to: a stable
// sort of the triplets by (row, col), then a front-to-back sum of each run.
// Its errors are the ones NewCOO has always returned.
func referenceAssemble(rows, cols int, ri, ci []int32, v []float64) ([]int, []int32, []float64, error) {
	if rows < 0 || cols < 0 {
		return nil, nil, nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if len(ri) != len(ci) || len(ci) != len(v) {
		return nil, nil, nil, fmt.Errorf("sparse: COO triplet lengths differ: %d, %d, %d", len(ri), len(ci), len(v))
	}
	for i := range ri {
		if ri[i] < 0 || int(ri[i]) >= rows || ci[i] < 0 || int(ci[i]) >= cols {
			return nil, nil, nil, fmt.Errorf("sparse: COO entry %d at (%d,%d) outside %dx%d", i, ri[i], ci[i], rows, cols)
		}
	}
	type triplet struct {
		r, c int32
		v    float64
	}
	ts := make([]triplet, len(v))
	for i := range ts {
		ts[i] = triplet{ri[i], ci[i], v[i]}
	}
	sort.SliceStable(ts, func(a, b int) bool {
		if ts[a].r != ts[b].r {
			return ts[a].r < ts[b].r
		}
		return ts[a].c < ts[b].c
	})
	ptr := make([]int, rows+1)
	col := []int32{}
	data := []float64{}
	for i, e := range ts {
		if i > 0 && ts[i-1].r == e.r && ts[i-1].c == e.c {
			data[len(data)-1] += e.v
			continue
		}
		col = append(col, e.c)
		data = append(data, e.v)
		ptr[e.r+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr, col, data, nil
}

// orderSensitive returns values whose sum depends on the order of addition:
// magnitudes thirty decades apart, so (a+b)+c != a+(b+c) for most triples.
func orderSensitive(rng *rand.Rand) float64 {
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)))
}

type tripletCase struct {
	name       string
	rows, cols int
	ri, ci     []int32
	v          []float64
}

func assemblyCases() []tripletCase {
	rng := rand.New(rand.NewSource(24))
	random := func(name string, rows, cols, n int) tripletCase {
		c := tripletCase{name: name, rows: rows, cols: cols}
		for k := 0; k < n; k++ {
			c.ri = append(c.ri, int32(rng.Intn(rows)))
			c.ci = append(c.ci, int32(rng.Intn(cols)))
			c.v = append(c.v, orderSensitive(rng))
		}
		return c
	}
	cases := []tripletCase{
		{name: "empty 0x0"},
		{name: "empty 5x7", rows: 5, cols: 7},
		// Many duplicates (n >> rows*cols), every row far past the insertion cutoff.
		random("dense duplicates", 6, 9, 4000),
		// Unsorted rows of 0 to ~10 entries, a few duplicates, empty rows.
		random("short rows", 3000, 40, 6000),
		// Rows of ~200: the packed-key sort, rare duplicates.
		random("long rows", 50, 100000, 10000),
		random("1 x n", 1, 5000, 7000),
		random("n x 1", 5000, 1, 7000),
		// Wide enough that the per-row step goes to the team.
		random("parallel", 20000, 20000, 150000),
	}
	// Row-major input whose rows are already sorted (the copy path), with one
	// row holding >= 3 copies of a coordinate between other entries.
	sorted := tripletCase{name: "row-major sorted", rows: 400, cols: 400}
	for i := 0; i < 400; i++ {
		if i%7 == 3 {
			continue // an empty row
		}
		for j := i % 5; j < 400; j += 1 + i%11 {
			sorted.ri = append(sorted.ri, int32(i))
			sorted.ci = append(sorted.ci, int32(j))
			sorted.v = append(sorted.v, orderSensitive(rng))
			if i == 200 && j%3 == 0 {
				for d := 0; d < 3; d++ {
					sorted.ri = append(sorted.ri, 200)
					sorted.ci = append(sorted.ci, int32(j))
					sorted.v = append(sorted.v, orderSensitive(rng))
				}
			}
		}
	}
	cases = append(cases, sorted)
	// Diagonal-major emission, as Banded produces: unsorted input, sorted rows.
	banded := tripletCase{name: "diagonal-major", rows: 900, cols: 900}
	for _, off := range []int{-40, -1, 0, 2, 17} {
		for i := max(0, -off); i < min(900, 900-off); i++ {
			banded.ri = append(banded.ri, int32(i))
			banded.ci = append(banded.ci, int32(i+off))
			banded.v = append(banded.v, orderSensitive(rng))
		}
	}
	cases = append(cases, banded)
	// The same coordinate three times with other rows' entries between them:
	// input order is global order, not adjacency.
	cases = append(cases, tripletCase{
		name: "interleaved duplicates", rows: 3, cols: 3,
		ri: []int32{1, 0, 1, 2, 1, 0},
		ci: []int32{1, 2, 1, 0, 1, 2},
		v:  []float64{1e100, 3, 1, 5, -1e100, 4},
	})
	return cases
}

// TestCSRFromTripletsMatchesReference: the assembler equals the stable-sort
// reference bit for bit — Ptr, columns and every summed value — on unsorted
// rows, order-sensitive duplicates, empty rows, single-row and single-column
// shapes and rows on both sides of the insertion cutoff, at 1, 2 and 4
// workers; NewCOO is the same arrays with Row expanded; the inputs are left
// as they were.
func TestCSRFromTripletsMatchesReference(t *testing.T) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	for _, c := range assemblyCases() {
		ptr, col, data, err := referenceAssemble(c.rows, c.cols, c.ri, c.ci, c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ri, ci, v := slices.Clone(c.ri), slices.Clone(c.ci), slices.Clone(c.v)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			m, err := CSRFromTriplets(c.rows, c.cols, c.ri, c.ci, c.v)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", c.name, procs, err)
			}
			if !slices.Equal(m.Ptr, ptr) || !slices.Equal(m.Col, col) {
				t.Fatalf("%s procs=%d: structure differs from the reference", c.name, procs)
			}
			for k := range data {
				if math.Float64bits(m.Data[k]) != math.Float64bits(data[k]) {
					t.Fatalf("%s procs=%d: value %d = %v, reference %v", c.name, procs, k, m.Data[k], data[k])
				}
			}
			if len(m.Data) != len(data) || cap(m.Data) != len(data) {
				t.Errorf("%s procs=%d: %d values in capacity %d, want exactly %d", c.name, procs, len(m.Data), cap(m.Data), len(data))
			}
			// What NewCSR would have checked, and the partition it would have built.
			if _, err := NewCSR(c.rows, c.cols, m.Ptr, m.Col, m.Data); err != nil {
				t.Fatalf("%s procs=%d: %v", c.name, procs, err)
			}
			coo, err := NewCOO(c.rows, c.cols, c.ri, c.ci, c.v)
			if err != nil {
				t.Fatal(err)
			}
			back, err := COOToCSR(coo)
			if err != nil {
				t.Fatalf("%s procs=%d: NewCOO's arrays: %v", c.name, procs, err)
			}
			if !slices.Equal(back.Ptr, ptr) || !slices.Equal(coo.Col, col) || !slices.Equal(coo.Data, m.Data) {
				t.Fatalf("%s procs=%d: NewCOO differs from CSRFromTriplets", c.name, procs)
			}
		}
		if !slices.Equal(ri, c.ri) || !slices.Equal(ci, c.ci) || !slices.Equal(v, c.v) {
			t.Errorf("%s: assembly modified its inputs", c.name)
		}
	}
}

// TestCSRFromTripletsErrors: the reference's (NewCOO's) error, text and all,
// including which of several bad entries is reported.
func TestCSRFromTripletsErrors(t *testing.T) {
	for _, c := range []tripletCase{
		{name: "negative rows", rows: -1, cols: 2},
		{name: "negative cols", rows: 2, cols: -3},
		{name: "lengths", rows: 2, cols: 2, ri: []int32{0}, ci: []int32{0, 1}, v: []float64{1, 2}},
		{name: "row too large", rows: 2, cols: 2, ri: []int32{0, 2, 5}, ci: []int32{0, 0, 0}, v: []float64{1, 2, 3}},
		{name: "negative row", rows: 2, cols: 2, ri: []int32{-1}, ci: []int32{0}, v: []float64{1}},
		{name: "col too large", rows: 2, cols: 2, ri: []int32{1, 1}, ci: []int32{1, 2}, v: []float64{1, 2}},
		{name: "negative col", rows: 2, cols: 2, ri: []int32{0}, ci: []int32{-1}, v: []float64{1}},
		{name: "entry in a 0-row matrix", rows: 0, cols: 4, ri: []int32{0}, ci: []int32{0}, v: []float64{1}},
		{name: "entry in a 0-col matrix", rows: 4, cols: 0, ri: []int32{0}, ci: []int32{0}, v: []float64{1}},
	} {
		_, _, _, want := referenceAssemble(c.rows, c.cols, c.ri, c.ci, c.v)
		if want == nil {
			t.Fatalf("%s: the reference accepts it", c.name)
		}
		if _, err := CSRFromTriplets(c.rows, c.cols, c.ri, c.ci, c.v); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: CSRFromTriplets error %v, want %v", c.name, err, want)
		}
		if _, err := NewCOO(c.rows, c.cols, c.ri, c.ci, c.v); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: NewCOO error %v, want %v", c.name, err, want)
		}
	}
}

// packedSortCanonicalize is canonicalize with its long-row sort as it was
// before the radix sort: slices.Sort over the packed column<<32|position
// words, then the same front-to-back merge of equal columns.
func packedSortCanonicalize(col []int32, data []float64) int {
	keys := make([]uint64, len(col))
	vals := append([]float64(nil), data...)
	for k, c := range col {
		keys[k] = uint64(c)<<32 | uint64(k)
	}
	slices.Sort(keys)
	for k, key := range keys {
		col[k] = int32(key >> 32)
		data[k] = vals[uint32(key)]
	}
	w := 0
	for k := 1; k < len(col); k++ {
		if col[k] == col[w] {
			data[w] += data[k]
			continue
		}
		w++
		col[w], data[w] = col[k], data[k]
	}
	for k := w + 1; k < len(col); k++ {
		col[k] = -1
	}
	return len(col) - 1 - w
}

// TestRadixRowSortMatchesPackedSort holds the long-row radix sort to the
// packed-key sort it replaced, bit for bit: random rows of 25 to 5000
// entries, with repeated columns summing order-sensitive values, over column
// ranges that take one radix pass (below 256) up to four (to MaxInt32). One
// rowSorter serves every row, as along an assembly range.
func TestRadixRowSortMatchesPackedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var s rowSorter
	for _, maxCol := range []int64{1, 255, 256, 1 << 16, 1<<24 + 5, math.MaxInt32} {
		for trial := 0; trial < 40; trial++ {
			n := insertionCutoff + 1 + rng.Intn(5000-insertionCutoff)
			// A pool smaller than the row forces duplicates on most trials.
			pool := make([]int32, 1+rng.Intn(2*n))
			for k := range pool {
				pool[k] = int32(rng.Int63n(maxCol + 1))
			}
			pool[0] = int32(maxCol) // the top byte is present: every pass runs
			col := make([]int32, n)
			data := make([]float64, n)
			for k := range col {
				col[k] = pool[rng.Intn(len(pool))]
				data[k] = orderSensitive(rng)
			}
			if !slices.Contains(col, int32(maxCol)) {
				col[rng.Intn(n)] = int32(maxCol)
			}
			wantCol, wantData := slices.Clone(col), slices.Clone(data)
			wantDropped := packedSortCanonicalize(wantCol, wantData)
			dropped := s.canonicalize(col, data)
			if dropped != wantDropped {
				t.Fatalf("max %d, n %d: dropped %d, want %d", maxCol, n, dropped, wantDropped)
			}
			for k := range col {
				if col[k] != wantCol[k] || math.Float64bits(data[k]) != math.Float64bits(wantData[k]) {
					t.Fatalf("max %d, n %d: slot %d is (%d, %v), want (%d, %v)",
						maxCol, n, k, col[k], data[k], wantCol[k], wantData[k])
				}
			}
		}
	}
}
