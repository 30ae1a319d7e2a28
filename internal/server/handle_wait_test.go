package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestRequestsDoNotWaitForTheHandle parks one /spmv inside its timed region —
// under the handle's mutex, for as long as the test likes — and requires
// everything that has no use for that mutex to answer meanwhile: a blocked
// product on the same handle (it runs on the immutable CSR master), a blocked
// product on another handle, and that other handle's deletion.
func TestRequestsDoNotWaitForTheHandle(t *testing.T) {
	clk := newParkClock(t)
	_, ts := newTestServer(t, Config{Clock: clk, Workers: 4})
	t.Cleanup(clk.Release) // after the server's: released before it shuts down
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
