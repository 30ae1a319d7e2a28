package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// TestSpMVPooledBuffersInterleavedSizes interleaves requests against two
// matrices of different dimensions so the handlers recycle buffers across
// sizes; every response must still match the locally computed product (a
// stale or mis-sliced pooled vector would show up immediately).
func TestSpMVPooledBuffersInterleavedSizes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	specs := []GenerateSpec{
		{Family: "banded", Size: 700, Degree: 5, Seed: 1},
		{Family: "random", Size: 300, Degree: 4, Seed: 2},
	}
	type mat struct {
		info  MatrixInfo
		local *sparse.CSR
	}
	var ms []mat
	for _, sp := range specs {
		info := register(t, ts.URL, RegisterRequest{Name: sp.Family, Generate: &sp})
		local, _, err := Materialize(RegisterRequest{Name: sp.Family, Generate: &sp}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, mat{info, local})
	}
	for round := 0; round < 3; round++ {
		for _, m := range ms {
			x := make([]float64, m.info.Cols)
			for i := range x {
				x[i] = float64((i+round)%5) - 2
			}
			var sr PanelResponse
			code, body := call(t, "POST", ts.URL+"/v1/matrices/"+m.info.ID+"/spmv",
				PanelRequest{X: [][]float64{x}}, &sr)
			if code != http.StatusOK {
				t.Fatalf("spmv: status %d body %s", code, body)
			}
			want := make([]float64, m.info.Rows)
			m.local.SpMV(want, x)
			for i := range want {
				if math.Abs(sr.Y[0][i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("round %d %s: y[%d] = %g, want %g", round, m.info.Name, i, sr.Y[0][i], want[i])
				}
			}
		}
	}
}

// TestAsyncSolveEndToEnd runs a solve on an Async server: the stage-2
// pipeline must be dispatched to the background, install its own result,
// and the journaled trace must report its feature+decide time as
// hidden — with the ledger charging only the paid (stage-1) share.
func TestAsyncSolveEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Selector: testSelector(), Async: true})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "poisson",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
	})
	var sol SolveResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "jacobi", Tol: 1e-12, MaxIters: 120}, &sol)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d body %s", code, body)
	}
	// Make the install deterministic: the background job almost certainly
	// finished during the 120-iteration solve, but nothing says it must have.
	h, ok := s.Registry().Get(info.ID)
	if !ok {
		t.Fatal("handle vanished")
	}
	h.SA.WaitPending()

	var got MatrixInfo
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatal("get failed")
	}
	sel := got.Selector
	if !sel.Async || !sel.Stage2Ran || sel.Pending || sel.Canceled {
		t.Fatalf("selector stats after adoption: %+v", sel)
	}
	if sel.HiddenSeconds <= 0 {
		t.Errorf("HiddenSeconds = %g, want > 0 (features + decide ran overlapped)", sel.HiddenSeconds)
	}
	if sel.PaidSeconds <= 0 {
		t.Errorf("PaidSeconds = %g, want > 0 (stage 1 is always inline)", sel.PaidSeconds)
	}

	var tr obs.DecisionTrace
	code, body = call(t, "GET", ts.URL+"/v1/trace/"+info.ID, nil, &tr)
	if code != http.StatusOK {
		t.Fatalf("trace: status %d body %s", code, body)
	}
	if !tr.Async || !tr.Stage2Ran || tr.Canceled {
		t.Fatalf("trace flags: %+v", tr)
	}
	if tr.HiddenSeconds <= 0 || tr.Ledger.HiddenSeconds != tr.HiddenSeconds {
		t.Errorf("trace hidden = %g, ledger hidden = %g; want equal and > 0",
			tr.HiddenSeconds, tr.Ledger.HiddenSeconds)
	}
	if tr.Ledger.OverheadSeconds != tr.PaidSeconds {
		t.Errorf("ledger charges %g, paid share is %g", tr.Ledger.OverheadSeconds, tr.PaidSeconds)
	}
	// The split partitions the total (up to float summation order; the two
	// sides accumulate the same regions in different groupings).
	total := tr.FeatureSeconds + tr.PredictSeconds + tr.ConvertSeconds
	if diff := math.Abs(tr.PaidSeconds + tr.HiddenSeconds - total); diff > 1e-12*(1+total) {
		t.Errorf("paid %g + hidden %g != overhead total %g", tr.PaidSeconds, tr.HiddenSeconds, total)
	}
	// The net-saving identity must hold exactly: hidden seconds never enter.
	if tr.Ledger.PostSpMVCalls > 0 {
		if want := tr.Ledger.SavedSeconds - tr.Ledger.OverheadSeconds; tr.Ledger.NetSeconds != want {
			t.Errorf("NetSeconds = %g, want exactly SavedSeconds - paid = %g", tr.Ledger.NetSeconds, want)
		}
	}
}

// TestDeleteWithInFlightPipeline deletes a handle right after the gate
// fires, while its background stage-2 job may still be running: the DELETE
// must complete (Delete calls SA.Close, which never waits for the worker)
// and the server must stay healthy.
func TestDeleteWithInFlightPipeline(t *testing.T) {
	_, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Selector: testSelector(), Async: true})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "pl",
		Generate: &GenerateSpec{Family: "powerlaw", Size: 5000, Degree: 8, Seed: 3},
	})
	// Exactly K iterations: the pipeline launches on the last progress
	// report and the solve returns immediately after.
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "power", Tol: 1e-15, MaxIters: 15}, nil)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d body %s", code, body)
	}
	if code, _ := call(t, "DELETE", ts.URL+"/v1/matrices/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d body %s", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after delete: %d", code)
	}
}

// TestRequestsDoNotWaitForTheHandle parks one /spmv inside its timed region —
// under the handle's mutex, for as long as the test likes — and requires
// everything that has no use for that mutex to answer meanwhile: a blocked
// product on the same handle (it runs on the immutable CSR master), a blocked
// product on another handle, and that other handle's deletion.
func TestRequestsDoNotWaitForTheHandle(t *testing.T) {
	sel := testSelector()
	_, ts := newTestServer(t, Config{Selector: sel, Workers: 4})
	clk := newParkClock(t) // after the server: released before it shuts down
	sel.Clock = clk
	busy := register(t, ts.URL, RegisterRequest{Name: "busy", Generate: &GenerateSpec{Family: "banded", Size: 400, Degree: 5, Seed: 1}})
	other := register(t, ts.URL, RegisterRequest{Name: "other", Generate: &GenerateSpec{Family: "random", Size: 300, Degree: 4, Seed: 2}})

	// post answers with a channel that closes once the request has its reply.
	post := func(method, path string, body any, want int) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			blob, _ := json.Marshal(body)
			req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
			}
		}()
		return done
	}
	panel := func(cols, k int) PanelRequest {
		x := make([][]float64, k)
		for i := range x {
			x[i] = make([]float64, cols)
		}
		return PanelRequest{X: x}
	}

	parked := post("POST", "/v1/matrices/"+busy.ID+"/spmv", panel(busy.Cols, 1), http.StatusOK)
	within(t, "the /spmv that parks on the clock", clk.parked)
	within(t, "/spmm on the handle whose mutex is held",
		post("POST", "/v1/matrices/"+busy.ID+"/spmm", panel(busy.Cols, 2), http.StatusOK))
	within(t, "/spmm on another handle",
		post("POST", "/v1/matrices/"+other.ID+"/spmm", panel(other.Cols, 2), http.StatusOK))
	within(t, "DELETE of another handle",
		post("DELETE", "/v1/matrices/"+other.ID, nil, http.StatusNoContent))
	select {
	case <-parked:
		t.Fatal("the parked /spmv answered before it was released")
	default:
	}
	clk.Release()
	within(t, "the released /spmv", parked)
}
