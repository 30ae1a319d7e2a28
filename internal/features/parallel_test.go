package features

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// serialExtract forces the single-threaded path regardless of matrix size,
// by replicating Extract's serial body through a small matrix trick: we
// simply compare against a fresh Set built with the exported helpers on the
// raw accumulators. Easiest correct approach: temporarily require the
// matrix to be small enough — instead we just compute both paths directly.
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

func TestParallelExtractMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fam := range matgen.AllFamilies {
		m, err := matgen.Generate(matgen.Spec{
			Name: fam.String(), Family: fam, Size: 8000, Degree: 12, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() < parallelExtractMinNNZ {
			t.Logf("%v: only %d nnz, parallel path not engaged", fam, m.NNZ())
		}
		got := Extract(m)
		want := serialReference(m)
		gv, wv := got.Vector(), want.Vector()
		for i := range gv {
			if gv[i] != wv[i] {
				t.Errorf("%v: feature %s = %v (parallel) vs %v (serial)", fam, Names[i], gv[i], wv[i])
			}
		}
	}
}

// TestExtractBlocksMatchesSeparatePasses: stage 2's one call returns what its
// two calls used to — Extract's set and CountBlocks at the BSR block size —
// whether the count is fused into the parallel pass (bs a power of two),
// falls back to a pass of its own (bs = 3, 6), or the whole extraction runs
// serially (one worker).
func TestExtractBlocksMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fam := range matgen.AllFamilies {
		m, err := matgen.Generate(matgen.Spec{
			Name: fam.String(), Family: fam, Size: 8001, Degree: 12, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		want := Extract(m).Vector()
		for _, procs := range []int{1, 2, 3} {
			old := runtime.GOMAXPROCS(procs)
			for _, bs := range []int{0, 1, 2, 3, 4, 6, 8} {
				got, blocks := ExtractBlocks(m, bs)
				wantBlocks := 0
				if bs > 0 {
					wantBlocks = CountBlocks(m, bs)
				}
				if blocks != wantBlocks {
					t.Errorf("%v procs=%d bs=%d: %d blocks, CountBlocks says %d", fam, procs, bs, blocks, wantBlocks)
				}
				for i, v := range got.Vector() {
					if v != want[i] {
						t.Errorf("%v procs=%d bs=%d: feature %s = %v, Extract says %v", fam, procs, bs, Names[i], v, want[i])
					}
				}
			}
			runtime.GOMAXPROCS(old)
		}
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
