package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// stencilSpec is a banded test matrix: a 30×30 five-point grid, whose row
// blocks each read a column window much narrower than the matrix.
func stencilSpec(name string) server.RegisterRequest {
	return server.RegisterRequest{Name: name, Generate: &server.GenerateSpec{Family: "stencil2d", Size: 900}, Tol: 1e-10}
}

// TestRouterColumnWindowsMatchSingleNode: the blocks of a partitioned banded
// matrix are hosted over their column windows and sent only those columns
// of x, and the router's answers — /spmv and /spmm "y" bytes, a distributed
// CG's iterate — are still the single node's, bit for bit.
func TestRouterColumnWindowsMatchSingleNode(t *testing.T) {
	single := newShard(t)
	var ref server.MatrixInfo
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices", stencilSpec("oracle"), &ref); code != http.StatusCreated {
		t.Fatalf("oracle register: %d %s", code, body)
	}
	_, _, ts := newCluster(t, 3, nil)
	var whole RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", RegisterRequest{RegisterRequest: stencilSpec("whole")}, &whole); code != http.StatusCreated {
		t.Fatalf("register whole: %d %s", code, body)
	}
	if p := whole.Primary; p == nil || p.ColLo != 0 || p.ColHi != ref.Cols {
		t.Errorf("whole placement %+v, want the window [0,%d)", p, ref.Cols)
	}
	ids := []string{whole.ID}
	for _, parts := range []int{2, 3} {
		var info RouteInfo
		req := RegisterRequest{RegisterRequest: stencilSpec("split"), Partition: &PartitionSpec{Parts: parts}}
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
			t.Fatalf("register %d blocks: %d %s", parts, code, body)
		}
		var got RouteInfo
		if code, body := callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
			t.Fatalf("get: %d %s", code, body)
		}
		if len(got.Parts) != parts || len(got.Handles) != parts {
			t.Fatalf("%d blocks placed as %d parts, %d shard handles", parts, len(got.Parts), len(got.Handles))
		}
		for i, p := range got.Parts {
			if w := p.ColHi - p.ColLo; w >= ref.Cols || w <= 0 {
				t.Errorf("%d blocks: part %d window [%d,%d) of %d columns", parts, i, p.ColLo, p.ColHi, ref.Cols)
			}
			if h := got.Handles[i]; h.Cols != p.ColHi-p.ColLo || h.Rows != p.RowHi-p.RowLo {
				t.Errorf("%d blocks: part %d hosted as %dx%d, want its rows × its window %dx%d",
					parts, i, h.Rows, h.Cols, p.RowHi-p.RowLo, p.ColHi-p.ColLo)
			}
		}
		ids = append(ids, info.ID)
	}

	progress := 0.5
	for _, op := range []string{"spmv", "spmm"} {
		body, err := json.Marshal(server.PanelRequest{X: awkwardOperand(4, ref.Cols), Progress: &progress})
		if err != nil {
			t.Fatal(err)
		}
		code, want, _ := postRaw(t, single.ts.URL+"/v1/matrices/"+ref.ID+"/"+op, body)
		if code != http.StatusOK {
			t.Fatalf("single-node %s: %d %s", op, code, want)
		}
		for _, id := range ids {
			code, got, _ := postRaw(t, ts.URL+"/v1/matrices/"+id+"/"+op, body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", id, op, code, got)
			}
			if !bytes.Equal(yBytes(t, got), yBytes(t, want)) {
				t.Errorf("%s %s: y bytes differ from the single node's", id, op)
			}
		}
	}

	solve := server.SolveRequest{App: "cg", Tol: 1e-10, MaxIters: 500, IncludeX: true}
	var wantSol server.SolveResponse
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices/"+ref.ID+"/solve", solve, &wantSol); code != http.StatusOK {
		t.Fatalf("single-node solve: %d %s", code, body)
	}
	for _, id := range ids[1:] {
		var sol SolveResponse
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+id+"/solve", solve, &sol); code != http.StatusOK {
			t.Fatalf("%s solve: %d %s", id, code, body)
		}
		if sol.Iterations != wantSol.Iterations || !bitEqual(sol.X, wantSol.X) {
			t.Errorf("%s: distributed CG ran %d iterations, single node %d; iterates equal: %v",
				id, sol.Iterations, wantSol.Iterations, bitEqual(sol.X, wantSol.X))
		}
	}
}

// TestPlaceFailureLeavesNoBlockBehind: blocks register concurrently, and
// when one is refused for good (a 4xx) the registration fails and every
// block that was placed is deleted again, including one whose registration
// completed only after the refusal.
func TestPlaceFailureLeavesNoBlockBehind(t *testing.T) {
	refused := make(chan struct{})
	var once sync.Once
	urls := make([]string, 2)
	for i := range urls {
		s := server.New(server.Config{Logger: quietLogger()})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/matrices" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				switch {
				case bytes.Contains(body, []byte(`#2/2`)):
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusBadRequest)
					io.WriteString(w, `{"error":"injected refusal"}`)
					once.Do(func() { close(refused) })
					return
				case bytes.Contains(body, []byte(`#1/2`)):
					select {
					case <-refused:
					case <-time.After(10 * time.Second):
						t.Error("block 2 was never refused while block 1 registered")
					}
				}
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	router, err := New(Config{Shards: urls, ProbeInterval: time.Hour, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)

	req := RegisterRequest{RegisterRequest: stencilSpec("doomed"), Partition: &PartitionSpec{Parts: 2}}
	code, body := callJSON(t, http.MethodPost, front.URL+"/v1/matrices", req, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "injected refusal") {
		t.Fatalf("register answered %d %s, want the shard's 400", code, body)
	}
	for _, u := range urls {
		var list server.ListResponse
		if code, body := callJSON(t, http.MethodGet, u+"/v1/matrices", nil, &list); code != http.StatusOK {
			t.Fatalf("list %s: %d %s", u, code, body)
		}
		if len(list.Matrices) != 0 {
			t.Errorf("shard %s still hosts %d matrices: %+v", u, len(list.Matrices), list.Matrices)
		}
	}
	var routes ListResponse
	callJSON(t, http.MethodGet, front.URL+"/v1/matrices", nil, &routes)
	if len(routes.Matrices) != 0 {
		t.Errorf("router kept %d routes", len(routes.Matrices))
	}
}
