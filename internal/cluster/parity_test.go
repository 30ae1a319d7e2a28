package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mmio"
	"repro/internal/server"
)

// diagMatrix renders an n×n diagonal matrix as Matrix Market text.
func diagMatrix(diag ...float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", len(diag), len(diag), len(diag))
	for i, v := range diag {
		fmt.Fprintf(&sb, "%d %d %g\n", i+1, i+1, v)
	}
	return sb.String()
}

// TestTierParityBadRequests sends the same malformed or uncomputable
// requests to a bare ocsd, to a router whole handle and to a router
// partitioned handle, and asserts all three answer with the same status: the
// router shares ocsd's register materializer, solve runner and error
// mapping, so a client cannot tell the tiers apart by how they say no — and
// a solver-level refusal (4xx) is never logged as a 5xx breach of the
// router's objective.
func TestTierParityBadRequests(t *testing.T) {
	spd := spdSpec("parity").RegisterRequest
	negDef := server.RegisterRequest{Name: "negdef", MatrixMarket: diagMatrix(-1, -2, -3, -4)}
	zeroDiag := server.RegisterRequest{Name: "zerodiag", MatrixMarket: diagMatrix(1, 2, 0, 4)}
	short := make([]float64, 399)
	full := make([]float64, 400)
	huge := make([]float64, 400) // A·huge overflows: JSON has no Inf to answer with
	for i := range huge {
		huge[i] = 1e308
	}
	// Jacobi's iteration matrix has spectral radius 20/3 here: the iterate
	// overflows long before max_iters.
	diverging := server.RegisterRequest{Name: "diverging", MatrixMarket: "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1\n1 2 10\n2 1 10\n2 2 1\n"}
	// A row range asked for a partial product; both tiers now refuse it as an
	// unknown field instead of answering with the full product.
	ranged := json.RawMessage(`{"x":[[` + strings.Repeat("0,", 399) + `0]],"row_lo":10,"row_hi":50}`)
	// No row reads columns 2 and 3: two row blocks are sent x's first and
	// last entries only, and the router itself must refuse a number between.
	holed := server.RegisterRequest{Name: "holed", MatrixMarket: "%%MatrixMarket matrix coordinate real general\n4 4 4\n1 1 1\n2 1 2\n3 4 3\n4 4 4\n"}
	unreadBad := json.RawMessage(`{"x":[[1,2,1e999,4]]}`)
	// A matrix as csr arrays; each row below that uses it breaks one thing.
	arrays := func(rows, cols int, ptr []int, col []int32, val []float64) server.RegisterRequest {
		return server.RegisterRequest{Name: "arrays", CSR: &server.CSRArrays{Rows: rows, Cols: cols, Ptr: ptr, Col: col, Val: val}}
	}
	valid := arrays(2, 4, []int{0, 2, 3}, []int32{0, 3, 1}, []float64{1, 2, 3})
	// A body one byte past the 64 MiB cap, made afresh for each request and
	// streamed: an opening that the rest of the body, spaces, never closes.
	pastCap := func(open string) func() io.Reader {
		return func() io.Reader {
			return io.MultiReader(strings.NewReader(open), io.LimitReader(spaces{}, 64<<20+1-int64(len(open))))
		}
	}

	cases := []struct {
		name string
		reg  any // a server.RegisterRequest, the raw body of one, or a body maker
		// path and body of the request against the registered handle; an
		// empty path means the registration itself is the request under test.
		path string
		body any
		want int
	}{
		{"spmv empty x", spd, "/spmv", server.PanelRequest{}, http.StatusBadRequest},
		{"spmv wrong length", spd, "/spmv", server.PanelRequest{X: [][]float64{short}}, http.StatusBadRequest},
		{"spmv bad row range", spd, "/spmv", ranged, http.StatusBadRequest},
		{"spmm empty x", spd, "/spmm", server.PanelRequest{}, http.StatusBadRequest},
		{"spmm wrong length", spd, "/spmm", server.PanelRequest{X: [][]float64{full, short}}, http.StatusBadRequest},
		{"spmm bad row range", spd, "/spmm", ranged, http.StatusBadRequest},
		{"spmv bad number in an unread column", holed, "/spmv", unreadBad, http.StatusBadRequest},
		{"spmm bad number in an unread column", holed, "/spmm", unreadBad, http.StatusBadRequest},
		{"spmv product overflows", spd, "/spmv", server.PanelRequest{X: [][]float64{full, huge}}, http.StatusUnprocessableEntity},
		{"spmm product overflows", spd, "/spmm", server.PanelRequest{X: [][]float64{huge, full}}, http.StatusUnprocessableEntity},
		{"solve whose iterate overflows", diverging, "/solve", server.SolveRequest{App: "jacobi", MaxIters: 3000, IncludeX: true}, http.StatusUnprocessableEntity},
		{"solve b wrong length", spd, "/solve", server.SolveRequest{App: "cg", B: short}, http.StatusBadRequest},
		{"solve unknown app", spd, "/solve", server.SolveRequest{App: "simplex"}, http.StatusUnprocessableEntity},
		{"pagerank without transition", spd, "/solve", server.SolveRequest{App: "pagerank"}, http.StatusUnprocessableEntity},
		{"cg on a non-SPD matrix", negDef, "/solve", server.SolveRequest{App: "cg"}, http.StatusUnprocessableEntity},
		{"pcg with a zero diagonal", zeroDiag, "/solve", server.SolveRequest{App: "pcg"}, http.StatusUnprocessableEntity},
		{"jacobi with a zero diagonal", zeroDiag, "/solve", server.SolveRequest{App: "jacobi"}, http.StatusUnprocessableEntity},
		{"solve past its deadline", spd, "/solve", server.SolveRequest{
			App: "jacobi", Tol: 1e-300, MaxIters: 1 << 30, TimeoutMillis: 5,
		}, http.StatusGatewayTimeout},
		{"generate with dangling", server.RegisterRequest{
			Generate: spd.Generate, Dangling: make([]bool, 400),
		}, "", nil, http.StatusBadRequest},
		{"as_transition with dangling", server.RegisterRequest{
			MatrixMarket: negDef.MatrixMarket, AsTransition: true, Dangling: make([]bool, 4),
		}, "", nil, http.StatusBadRequest},
		{"unknown generate family", server.RegisterRequest{
			Generate: &server.GenerateSpec{Family: "moebius", Size: 100},
		}, "", nil, http.StatusBadRequest},
		{"csr ptr not monotone", arrays(3, 4, []int{0, 2, 1, 3}, []int32{0, 1, 2}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr ptr overshoots", arrays(2, 4, []int{0, 100, 3}, []int32{0, 1, 2}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr ptr length disagrees", arrays(3, 4, []int{0, 2, 3}, []int32{0, 3, 1}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr col and val lengths disagree", arrays(2, 4, []int{0, 2, 3}, []int32{0, 3, 1}, []float64{1, 2}), "", nil, http.StatusBadRequest},
		{"csr column out of range", arrays(2, 4, []int{0, 2, 3}, []int32{0, 4, 1}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr negative column", arrays(2, 4, []int{0, 2, 3}, []int32{-1, 3, 1}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr columns unsorted", arrays(2, 4, []int{0, 2, 3}, []int32{3, 0, 1}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr column duplicated", arrays(2, 4, []int{0, 2, 3}, []int32{3, 3, 1}, []float64{1, 2, 3}), "", nil, http.StatusBadRequest},
		{"csr columns beyond int32", arrays(1, math.MaxInt32+1, []int{0, 1}, []int32{0}, []float64{1}), "", nil, http.StatusBadRequest},
		{"csr rows beyond int32", arrays(math.MaxInt32+1, 1, []int{0}, nil, nil), "", nil, http.StatusBadRequest},
		{"csr column number overflows int32", json.RawMessage(
			`{"csr":{"rows":1,"cols":4,"ptr":[0,1],"col":[4294967296],"val":[1]}}`), "", nil, http.StatusBadRequest},
		{"csr value out of range", json.RawMessage(
			`{"csr":{"rows":1,"cols":4,"ptr":[0,1],"col":[0],"val":[1e999]}}`), "", nil, http.StatusBadRequest},
		{"csr value not a number", json.RawMessage(
			`{"csr":{"rows":1,"cols":4,"ptr":[0,2],"col":[0,1],"val":[1,null]}}`), "", nil, http.StatusBadRequest},
		{"csr with matrix_market", server.RegisterRequest{
			CSR: valid.CSR, MatrixMarket: diagMatrix(1, 2),
		}, "", nil, http.StatusBadRequest},
		{"csr with generate", server.RegisterRequest{
			CSR: valid.CSR, Generate: spd.Generate,
		}, "", nil, http.StatusBadRequest},
		{"matrix_market with an infinite value", server.RegisterRequest{
			MatrixMarket: "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 inf\n",
		}, "", nil, http.StatusBadRequest},
		{"register body past the cap", pastCap(`{"matrix_market":"`), "", nil, http.StatusRequestEntityTooLarge},
		{"spmv body past the cap", spd, "/spmv", pastCap(`{"x":[[`), http.StatusRequestEntityTooLarge},
	}

	bare := newShard(t)
	_, _, rts := newCluster(t, 2, nil)
	tiers := []struct {
		name  string
		base  string
		parts int // > 0 registers row-partitioned
	}{
		{"ocsd", bare.ts.URL, 0},
		{"router-whole", rts.URL, 0},
		{"router-partitioned", rts.URL, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range tiers {
				reg := tc.reg
				if tier.parts > 0 {
					switch r := tc.reg.(type) {
					case server.RegisterRequest:
						reg = RegisterRequest{RegisterRequest: r, Partition: &PartitionSpec{Parts: tier.parts}}
					case json.RawMessage:
						reg = json.RawMessage(fmt.Sprintf(`{"partition":{"parts":%d},%s`, tier.parts, r[1:]))
					}
				}
				var info struct {
					ID string `json:"id"`
				}
				code, body := callJSON(t, http.MethodPost, tier.base+"/v1/matrices", fresh(reg), &info)
				if tc.path != "" {
					if code != http.StatusCreated {
						t.Fatalf("%s: register: %d %s", tier.name, code, body)
					}
					code, body = callJSON(t, http.MethodPost, tier.base+"/v1/matrices/"+info.ID+tc.path, fresh(tc.body), nil)
				}
				if code != tc.want {
					t.Errorf("%s answered %d, want %d like every tier: %s", tier.name, code, tc.want, body)
				}
			}
		})
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// fresh makes the body a case's body maker describes, and passes any other
// body through.
func fresh(body any) any {
	if mk, ok := body.(func() io.Reader); ok {
		return mk()
	}
	return body
}

// TestDiagonalCallSitesAgree: the diagonal a solver is handed is the same
// vector wherever it is read — sparse.CSR.Diag itself, an ocsd handle's lazy
// copy and the router's copy for a partitioned handle — and equals At(i, i)
// over the leading min(rows, cols) entries.
func TestDiagonalCallSitesAgree(t *testing.T) {
	cases := []struct {
		name string
		mtx  string
	}{
		{"banded", "%%MatrixMarket matrix coordinate real general\n5 5 11\n" +
			"1 1 4\n1 2 -1\n2 1 -1\n2 2 5\n2 3 -1\n3 2 -1\n3 3 6\n4 3 -1\n4 4 7\n5 4 -1\n5 5 8\n"},
		{"zero diagonal", "%%MatrixMarket matrix coordinate real general\n4 4 6\n" +
			"1 2 1\n2 1 2\n2 2 3\n3 1 4\n3 4 5\n4 3 6\n"},
		{"rectangular", "%%MatrixMarket matrix coordinate real general\n6 3 8\n" +
			"1 1 1\n2 1 2\n2 3 3\n3 2 4\n3 3 5\n4 1 6\n5 3 7\n6 2 8\n"},
	}
	bare := server.New(server.Config{Logger: quietLogger()})
	bts := httptest.NewServer(bare.Handler())
	defer bts.Close()
	_, router, rts := newCluster(t, 2, nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := mmio.Read(strings.NewReader(tc.mtx))
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := a.Dims()
			want := make([]float64, min(rows, cols))
			for i := range want {
				want[i] = a.At(i, i)
			}

			reg := server.RegisterRequest{Name: tc.name, MatrixMarket: tc.mtx}
			var info struct {
				ID string `json:"id"`
			}
			if code, body := callJSON(t, http.MethodPost, bts.URL+"/v1/matrices", reg, &info); code != http.StatusCreated {
				t.Fatalf("ocsd register: %d %s", code, body)
			}
			h, ok := bare.Registry().Get(info.ID)
			if !ok {
				t.Fatalf("ocsd lost handle %s", info.ID)
			}
			preg := RegisterRequest{RegisterRequest: reg, Partition: &PartitionSpec{Parts: 2}}
			if code, body := callJSON(t, http.MethodPost, rts.URL+"/v1/matrices", preg, &info); code != http.StatusCreated {
				t.Fatalf("router register: %d %s", code, body)
			}
			router.mu.Lock()
			rt := router.routes[info.ID]
			router.mu.Unlock()
			if rt == nil || !rt.partitioned() {
				t.Fatalf("router route %s: %+v", info.ID, rt)
			}

			for _, site := range []struct {
				name string
				got  []float64
			}{
				{"sparse.CSR.Diag", a.Diag()},
				{"server.Handle.Diag", h.Diag()},
				{"cluster route.diag", rt.diag},
			} {
				if !bitEqual(site.got, want) {
					t.Errorf("%s = %v, want %v", site.name, site.got, want)
				}
			}
		})
	}
}
