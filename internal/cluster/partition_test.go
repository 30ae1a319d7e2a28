package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// checkBlocks asserts that blocks tile a's rows, that each block's window
// holds every entry of its rows, and that each block times x[ColLo:ColHi]
// is bit-equal to its rows of the full product.
func checkBlocks(t *testing.T, a *sparse.CSR, blocks []RowBlock) {
	t.Helper()
	rows, cols := a.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1 + float64(i%13)/7
	}
	want := make([]float64, rows)
	a.SpMV(want, x)
	next := 0
	for _, b := range blocks {
		if b.Lo != next {
			t.Fatalf("block [%d,%d) does not start at row %d", b.Lo, b.Hi, next)
		}
		next = b.Hi
		if br, bc := b.CSR.Dims(); br != b.Hi-b.Lo || bc != b.ColHi-b.ColLo || b.ColLo < 0 || b.ColHi > cols {
			t.Fatalf("block [%d,%d) window [%d,%d) is %dx%d", b.Lo, b.Hi, b.ColLo, b.ColHi, br, bc)
		}
		for k := a.Ptr[b.Lo]; k < a.Ptr[b.Hi]; k++ {
			if c := int(a.Col[k]); c < b.ColLo || c >= b.ColHi {
				t.Fatalf("block [%d,%d) window [%d,%d) misses column %d", b.Lo, b.Hi, b.ColLo, b.ColHi, c)
			}
		}
		y := make([]float64, b.Hi-b.Lo)
		b.CSR.SpMV(y, x[b.ColLo:b.ColHi])
		for i, v := range y {
			if math.Float64bits(v) != math.Float64bits(want[b.Lo+i]) {
				t.Fatalf("row %d: block product %v, full product %v", b.Lo+i, v, want[b.Lo+i])
			}
		}
	}
	if next != rows {
		t.Fatalf("blocks end at row %d of %d", next, rows)
	}
}

// TestPartitionRowsWindowsABandedMatrix: a banded matrix's row blocks read
// only the columns near their rows, so each gets a window narrower than the
// matrix and its own rebased column indices.
func TestPartitionRowsWindowsABandedMatrix(t *testing.T) {
	a, err := matgen.Stencil2D(40)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := a.Dims()
	blocks, err := PartitionRows(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(blocks))
	}
	for _, b := range blocks {
		if w := b.ColHi - b.ColLo; w >= cols || w > b.Hi-b.Lo+2*40 {
			t.Errorf("block [%d,%d) window [%d,%d) is %d of %d columns wide", b.Lo, b.Hi, b.ColLo, b.ColHi, w, cols)
		}
		if &b.CSR.Col[0] == &a.Col[a.Ptr[b.Lo]] {
			t.Errorf("block [%d,%d) aliases the parent's column indices under a narrower window", b.Lo, b.Hi)
		}
	}
	checkBlocks(t, a, blocks)
}

// TestPartitionRowsKeepsFullWindows: a uniform-random matrix's blocks each
// read (nearly) every column, get the full width, and alias the parent's
// column indices instead of copying them.
func TestPartitionRowsKeepsFullWindows(t *testing.T) {
	a, err := matgen.UniformRows(600, 300, 8, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := PartitionRows(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if b.ColLo != 0 || b.ColHi != 300 {
			t.Errorf("block [%d,%d) window [%d,%d), want the full [0,300)", b.Lo, b.Hi, b.ColLo, b.ColHi)
		}
		if &b.CSR.Col[0] != &a.Col[a.Ptr[b.Lo]] {
			t.Errorf("block [%d,%d) copied the parent's column indices", b.Lo, b.Hi)
		}
	}
	checkBlocks(t, a, blocks)
}

// TestPartitionRowsEmptyBlockGetsOneColumn: a block of empty rows reads no
// column, and gets a window one column wide, so its shard still hosts a
// matrix and is sent a vector.
func TestPartitionRowsEmptyBlockGetsOneColumn(t *testing.T) {
	a, err := sparse.NewCSR(4, 5, []int{0, 1, 1, 1, 1}, []int32{3}, []float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := PartitionRows(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("%d blocks, want 2", len(blocks))
	}
	if b := blocks[0]; b.Lo != 0 || b.Hi != 1 || b.ColLo != 3 || b.ColHi != 4 {
		t.Errorf("first block rows [%d,%d) window [%d,%d), want rows [0,1) window [3,4)", b.Lo, b.Hi, b.ColLo, b.ColHi)
	}
	if b := blocks[1]; b.CSR.NNZ() != 0 || b.ColHi-b.ColLo != 1 {
		t.Errorf("empty block rows [%d,%d) window [%d,%d), want one column", b.Lo, b.Hi, b.ColLo, b.ColHi)
	}
	checkBlocks(t, a, blocks)
	if gaps := unreadColumns(blocks, 5); len(gaps) != 2 || gaps[0] != [2]int{1, 3} || gaps[1] != [2]int{4, 5} {
		t.Errorf("unread columns %v, want [[1 3] [4 5]]", gaps)
	}
}
