package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/server"
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

// TestBlockBodyIsWhatEncodingJSONWrites: a block's registration body is
// byte for byte the json.Marshal of the request it stands for, names that
// need escaping and values of every kind included, and fits the buffer it
// was sized for. registerBody's other fields (dangling, a tol of zero, an
// empty or non-ASCII text) are held to the same oracle.
func TestBlockBodyIsWhatEncodingJSONWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, err := matgen.UniformRows(300, 500, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Data {
		switch k % 5 {
		case 0:
			a.Data[k] = float64(rng.Intn(2001) - 1000)
		case 1:
			a.Data[k] = math.Float64frombits(rng.Uint64() &^ (0x7FF << 52) >> 1)
		case 2:
			a.Data[k] = -1e300 * rng.Float64()
		}
	}
	blocks, err := PartitionRows(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for i, name := range []string{"grid#1/2[0,150)", `a "quoted" \ name <&>`, "tab\tnew\nline\x00\x1f\x7f", "ünï c ode\xff\xfe"} {
		b := blocks[i%len(blocks)]
		tol := []float64{1e-8, 0, 0.25, 1e21}[i]
		var text strings.Builder
		if err := mmio.Write(&text, b.CSR); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text.String())
		want, err := json.Marshal(server.RegisterRequest{Name: name, MatrixMarket: text.String(), Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		got, err := blockBody(name, b, tol)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d named %q: body differs from json.Marshal's\n got %.200s\nwant %.200s", i, name, got, want)
		}
		if size := mtxSize(b.CSR) + len(name) + 64; len(got) > size {
			t.Errorf("block %d: body of %d bytes outgrew its %d", i, len(got), size)
		}
	}
	for _, req := range []server.RegisterRequest{
		{Name: "h", MatrixMarket: texts[0], Tol: 1e-10, Dangling: []bool{true, false, false, true}},
		{MatrixMarket: "%%MatrixMarket matrix coordinate real general\n% ünï  \"c\" <o>\n1 1 1\n"},
		{Name: "empty"},
		{},
	} {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := registerBody(0, req.Name, func(w io.Writer) error {
			_, err := io.WriteString(w, req.MatrixMarket)
			return err
		}, req.Tol, req.Dangling)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("registerBody(%q, …): %v\n got %.200s\nwant %.200s", req.Name, err, got, want)
		}
	}
}

// BenchmarkBlockBody is one registration body of the cluster_partitioned
// workload's handle (stencil2d on a 280×280 grid, two row blocks): written
// straight into one buffer, and the way it was built before, Matrix Market
// text in a strings.Builder that json.Marshal then copies and escapes. B/op
// is the allocation per block.
func BenchmarkBlockBody(b *testing.B) {
	a, err := matgen.Stencil2D(280)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := PartitionRows(a, 2)
	if err != nil {
		b.Fatal(err)
	}
	const name = "grid#1/2[0,39200)"
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := blockBody(name, blocks[0], 1e-8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			if err := mmio.Write(&sb, blocks[0].CSR); err != nil {
				b.Fatal(err)
			}
			if _, err := json.Marshal(server.RegisterRequest{Name: name, MatrixMarket: sb.String(), Tol: 1e-8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
