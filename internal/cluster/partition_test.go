package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/matgen"
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

// TestExportRegisterKeepsIdentity: a handle exported from one shard and
// re-registered on another by the router's registerExport, the replication
// and drain path, keeps its shape, tol, structure fingerprint and value
// digest: for every generator family, for a transition handle (whose
// dangling flags must come across too) and for a matrix registered as csr
// arrays whose values are the hardest to print (-0, subnormals, the extremes).
func TestExportRegisterKeepsIdentity(t *testing.T) {
	shards, router, _ := newCluster(t, 2, nil)
	src, err := NewShardClient(shards[0].ts.URL, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewShardClient(shards[1].ts.URL, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []server.RegisterRequest
	for _, f := range matgen.AllFamilies {
		reqs = append(reqs, server.RegisterRequest{Name: f.String(), Generate: &server.GenerateSpec{Family: f.String(), Size: 400, Seed: 5}, Tol: 1e-10})
	}
	reqs = append(reqs,
		// Nodes 2 and 4 have no out-links: their flags are set.
		server.RegisterRequest{Name: "web", CSR: &server.CSRArrays{
			Rows: 5, Cols: 5,
			Ptr: []int{0, 2, 3, 3, 5, 5},
			Col: []int32{1, 3, 2, 0, 4},
			Val: []float64{1, 1, 1, 1, 1},
		}, AsTransition: true},
		server.RegisterRequest{Name: "awkward", CSR: &server.CSRArrays{
			Rows: 3, Cols: 4,
			Ptr: []int{0, 3, 3, 7},
			Col: []int32{0, 2, 3, 0, 1, 2, 3},
			Val: []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -2.2250738585072014e-308, 0.1, 1.0 / 3, -1e23},
		}},
	)
	ctx := context.Background()
	for _, req := range reqs {
		var want server.MatrixInfo
		if code, body := callJSON(t, http.MethodPost, shards[0].ts.URL+"/v1/matrices", req, &want); code != http.StatusCreated {
			t.Fatalf("%s: register: %d %s", req.Name, code, body)
		}
		exp, err := src.Export(ctx, want.ID)
		if err != nil {
			t.Fatalf("%s: export: %v", req.Name, err)
		}
		got, err := router.registerExport(ctx, dst, exp)
		if err != nil {
			t.Fatalf("%s: register export: %v", req.Name, err)
		}
		if got.Fingerprint != want.Fingerprint || got.ValueDigest != want.ValueDigest {
			t.Errorf("%s: copy is %s/%s, source %s/%s", req.Name, got.Fingerprint, got.ValueDigest, want.Fingerprint, want.ValueDigest)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ != want.NNZ || got.Tol != want.Tol || got.Transition != want.Transition {
			t.Errorf("%s: copy %dx%d nnz %d tol %g transition %v, source %dx%d nnz %d tol %g transition %v", req.Name,
				got.Rows, got.Cols, got.NNZ, got.Tol, got.Transition, want.Rows, want.Cols, want.NNZ, want.Tol, want.Transition)
		}
		back, err := dst.Export(ctx, got.ID)
		if err != nil {
			t.Fatalf("%s: export copy: %v", req.Name, err)
		}
		if !slices.Equal(back.Dangling, exp.Dangling) {
			t.Errorf("%s: copy's dangling flags differ from the source's", req.Name)
		}
		if req.AsTransition && !slices.Contains(exp.Dangling, true) {
			t.Errorf("%s: no dangling node, so the flags were not put to the test", req.Name)
		}
	}
}

// BenchmarkBlockBody is one registration of a row block of the
// cluster_partitioned workload's handle (stencil2d on a 280×280 grid, two
// row blocks) on both sides of the hop: the router's body, and the shard's
// decode of it into the CSR it hosts. B/op is the allocation per block.
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
	body, err := blockBody(name, blocks[0], 1e-8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(body))/1e6, "body_MB")
		for i := 0; i < b.N; i++ {
			if _, err := blockBody(name, blocks[0], 1e-8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req server.RegisterRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
			if _, _, err := server.Materialize(req, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
