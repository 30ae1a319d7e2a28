package features

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// serialReference is the multi-pass extraction the fused sweep is checked
// against: one plain loop per feature group, sharing only the fill* helpers
// that turn merged counters into features.
func serialReference(a *sparse.CSR) *Set {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	s := &Set{M: float64(rows), N: float64(cols), NNZ: float64(nnz)}
	if rows == 0 || cols == 0 {
		return s
	}
	s.Density = float64(nnz) / (float64(rows) * float64(cols))
	minRD, maxRD := int(^uint(0)>>1), 0
	var sumRD, sumSqRD, bounce float64
	prev := -1
	for i := 0; i < rows; i++ {
		rd := a.RowNNZ(i)
		if rd < minRD {
			minRD = rd
		}
		if rd > maxRD {
			maxRD = rd
		}
		sumRD += float64(rd)
		sumSqRD += float64(rd) * float64(rd)
		if prev >= 0 {
			d := rd - prev
			if d < 0 {
				d = -d
			}
			bounce += float64(d)
		}
		prev = rd
	}
	fillRowStats(s, rows, minRD, maxRD, sumRD, sumSqRD, bounce)
	cd := make([]int32, cols)
	for _, c := range a.Col {
		cd[c]++
	}
	fillColStats(s, cd)
	diagCount := make([]int32, rows+cols-1)
	for i := 0; i < rows; i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			diagCount[int(a.Col[k])-i+rows-1]++
		}
	}
	fillDiagStats(s, rows, cols, diagCount)
	fillDerived(s, nnz, maxRD)
	s.Blocks = float64(CountBlocks(a, BlockEdge))
	s.MeanNeighbor = meanNeighbor(a)
	return s
}

// meanNeighbor computes the average number of nonzero 4-neighbors
// ((i,j±1) and (i±1,j)) over all nonzeros. Horizontal neighbors come from
// adjacency in the sorted row; vertical matches between consecutive rows
// come from a two-pointer merge, keeping the whole computation O(nnz).
// Every vertical match (i,c)~(i+1,c) contributes one neighbor to each of
// the two entries, hence the x2.
func meanNeighbor(a *sparse.CSR) float64 {
	rows, _ := a.Dims()
	nnz := a.NNZ()
	if nnz == 0 {
		return 0
	}
	total := 0
	for i := 0; i < rows; i++ {
		lo, hi := a.Ptr[i], a.Ptr[i+1]
		for k := lo + 1; k < hi; k++ {
			if a.Col[k-1] == a.Col[k]-1 {
				total += 2 // (i,c) has right neighbor, (i,c+1) has left
			}
		}
		if i+1 >= rows {
			continue
		}
		p, q := lo, a.Ptr[i+1]
		pEnd, qEnd := hi, a.Ptr[i+2]
		for p < pEnd && q < qEnd {
			switch {
			case a.Col[p] < a.Col[q]:
				p++
			case a.Col[p] > a.Col[q]:
				q++
			default:
				total += 2 // vertical pair
				p++
				q++
			}
		}
	}
	return float64(total) / float64(nnz)
}

// TestParallelExtractMatchesSerial: the fused sweep agrees bit for bit with
// the multi-pass reference on both sides of parallelExtractMinNNZ — every family at 8000 rows, the default
// training corpus (two thirds of it below the gate) and the pathological
// shapes — over one range (GOMAXPROCS 1), two, and the suite's default.
func TestParallelExtractMatchesSerial(t *testing.T) {
	type namedCSR struct {
		name string
		a    *sparse.CSR
	}
	var cases []namedCSR
	rng := rand.New(rand.NewSource(1))
	for _, fam := range matgen.AllFamilies {
		m, err := matgen.Generate(matgen.Spec{
			Name: fam.String(), Family: fam, Size: 8000, Degree: 12, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedCSR{fam.String(), m})
	}
	corpus, err := matgen.Corpus(matgen.CorpusConfig{Count: 96, Seed: 42, MinSize: 500, MaxSize: 6000})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus {
		cases = append(cases, namedCSR{e.Spec.Name, e.Matrix})
	}
	for _, c := range check.Pathological(1) {
		cases = append(cases, namedCSR{c.Name, c.A})
	}

	small := 0
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	for _, c := range cases {
		if c.a.NNZ() < parallelExtractMinNNZ {
			small++
		}
		want := serialReference(c.a).Vector()
		for _, procs := range []int{1, 2, ambient} {
			runtime.GOMAXPROCS(procs)
			for i, v := range Extract(c.a).Vector() {
				if v != want[i] {
					t.Errorf("%s procs=%d: feature %s = %v (sweep) vs %v (reference)", c.name, procs, Names[i], v, want[i])
				}
			}
		}
	}
	if small == 0 || small == len(cases) {
		t.Errorf("%d of %d matrices below the width gate: one side of it is untested", small, len(cases))
	}
}

func TestAlignedRanges(t *testing.T) {
	for _, tc := range []struct{ n, parts, align int }{
		{100, 4, 2}, {101, 4, 2}, {7, 3, 2}, {2, 8, 2}, {16, 16, 4}, {1, 1, 2},
	} {
		ranges := alignedRanges(tc.n, tc.parts, tc.align)
		prev := 0
		for i, r := range ranges {
			if r[0] != prev || r[1] <= r[0] {
				t.Fatalf("n=%d parts=%d: bad range %v", tc.n, tc.parts, r)
			}
			if i < len(ranges)-1 && r[1]%tc.align != 0 {
				t.Errorf("n=%d parts=%d: interior boundary %d not aligned to %d", tc.n, tc.parts, r[1], tc.align)
			}
			prev = r[1]
		}
		if prev != tc.n {
			t.Fatalf("n=%d parts=%d: ranges end at %d", tc.n, tc.parts, prev)
		}
	}
}

// TestSweepCellEdges aims at what the packed column cells could get wrong:
// an odd column count (the last column's block partner is the pad cell), a
// full column 0 and a full last column (every range boundary splits a
// vertical pair, and every second band row meets a block the first row
// opened), a full row 0 (its "row above" must match no stamp, including the
// never-touched one), stretches of empty rows (a stale stamp must not read as
// the row above), and range counts that do not divide the rows.
func TestSweepCellEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rows, cols = 2003, 1999
	ptr := make([]int, rows+1)
	var col []int32
	for i := 0; i < rows; i++ {
		empty := i%97 >= 90 && i > 0 // seven empty rows in every 97
		for c := 0; c < cols && !empty; c++ {
			switch {
			case i == 0, c == 0, c == cols-1:
			case rng.Intn(100) < 1:
			case i%2 == 1 && c%2 == 1 && rng.Intn(100) < 2: // the block's last corner alone
			default:
				continue
			}
			col = append(col, int32(c))
		}
		ptr[i+1] = len(col)
	}
	a, err := sparse.NewCSR(rows, cols, ptr, col, make([]float64, len(col)))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() < parallelExtractMinNNZ {
		t.Fatalf("%d nonzeros: below the width gate, the sweep would run over one range", a.NNZ())
	}
	want := serialReference(a).Vector()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for i, v := range Extract(a).Vector() {
			if v != want[i] {
				t.Errorf("procs=%d: feature %s = %v (sweep) vs %v (reference)", procs, Names[i], v, want[i])
			}
		}
	}
}
