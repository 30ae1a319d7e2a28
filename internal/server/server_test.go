package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/timing"
)

// gateClock is the selector clock of a test that needs a deterministic
// stage 2: every timed region, each sampled SpMV among them, takes exactly
// 1 ms of fake time. Against the overhead gate ocsd runs — 5 · (300 µs +
// 8 ns · nnz) / 1 ms remaining calls — stage 2 then runs whenever stage 1
// predicts TH iterations left on a matrix under 300 000 nonzeros.
func gateClock() *timing.FakeClock {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	return clk
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// call sends a JSON request and decodes the JSON response into out (which
// may be nil). It returns the HTTP status and raw body.
func call(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && buf.Len() > 0 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

func register(t *testing.T, base string, req RegisterRequest) MatrixInfo {
	t.Helper()
	var info MatrixInfo
	code, body := call(t, "POST", base+"/v1/matrices", req, &info)
	if code != http.StatusCreated {
		t.Fatalf("register: status %d body %s", code, body)
	}
	return info
}

func TestRegisterSpMVLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "banded",
		Generate: &GenerateSpec{Family: "banded", Size: 500, Degree: 5, Seed: 42},
	})
	if info.ID == "" || info.Rows != 500 || info.NNZ == 0 {
		t.Fatalf("bad registration info: %+v", info)
	}
	if info.Selector.Format != "CSR" {
		t.Errorf("fresh handle format %q, want CSR", info.Selector.Format)
	}

	// The generator is deterministic, so the server's matrix can be
	// reproduced locally to check the SpMV results bit-for-bit.
	local, err := matgen.Generate(matgen.Spec{
		Name: "banded", Family: matgen.FamBanded, Size: 500, Degree: 5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, info.Cols)
	x2 := make([]float64, info.Cols)
	for i := range x1 {
		x1[i] = float64(i % 7)
		x2[i] = 1
	}
	var sr PanelResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmv", PanelRequest{X: [][]float64{x1, x2}}, &sr)
	if code != http.StatusOK {
		t.Fatalf("spmv: status %d body %s", code, body)
	}
	if len(sr.Y) != 2 {
		t.Fatalf("got %d result vectors, want 2", len(sr.Y))
	}
	for vi, x := range [][]float64{x1, x2} {
		want := make([]float64, info.Rows)
		local.SpMV(want, x)
		for i := range want {
			if math.Abs(sr.Y[vi][i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("y[%d][%d] = %g, want %g", vi, i, sr.Y[vi][i], want[i])
			}
		}
	}

	var got MatrixInfo
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.SpMVCalls != 2 {
		t.Errorf("spmv_calls %d, want 2", got.SpMVCalls)
	}

	var list ListResponse
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices", nil, &list); code != http.StatusOK || len(list.Matrices) != 1 {
		t.Fatalf("list: status %d, %d matrices", code, len(list.Matrices))
	}

	if code, _ := call(t, "DELETE", ts.URL+"/v1/matrices/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", code)
	}
	if code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmv", PanelRequest{X: [][]float64{x1}}, nil); code != http.StatusNotFound {
		t.Fatalf("spmv after delete: status %d, want 404", code)
	}
}

func TestRegisterUploadAndMalformedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A valid upload round-trips through the mmio parser.
	mtx := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3\n2 2 4\n"
	info := register(t, ts.URL, RegisterRequest{Name: "tiny.mtx", MatrixMarket: mtx})
	if info.Rows != 2 || info.NNZ != 2 {
		t.Fatalf("upload parsed wrong: %+v", info)
	}

	// A malformed upload names the input and the offending line.
	bad := "%%MatrixMarket matrix coordinate real general\nnot a size line\n"
	var errResp errorResponse
	code, _ := call(t, "POST", ts.URL+"/v1/matrices",
		RegisterRequest{Name: "bad.mtx", MatrixMarket: bad}, &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed upload: status %d, want 400", code)
	}
	if !strings.Contains(errResp.Error, "bad.mtx:2") {
		t.Errorf("error %q does not name the file and line", errResp.Error)
	}

	// Neither body form present.
	if code, _ := call(t, "POST", ts.URL+"/v1/matrices", RegisterRequest{Name: "x"}, nil); code != http.StatusBadRequest {
		t.Errorf("empty register: status %d, want 400", code)
	}
}

func TestConcurrentSpMVOneHandle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{
		Generate: &GenerateSpec{Family: "random", Size: 800, Degree: 6, Seed: 7},
	})
	local, err := matgen.Generate(matgen.Spec{Family: matgen.FamRandom, Size: 800, Degree: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, info.Cols)
	rng := rand.New(rand.NewSource(9))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, info.Rows)
	local.SpMV(want, x)

	const workers = 8
	const perWorker = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				var sr PanelResponse
				code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmv", PanelRequest{X: [][]float64{x}}, &sr)
				if code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", code, body)
					return
				}
				for i := range want {
					if math.Abs(sr.Y[0][i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
						errs <- fmt.Errorf("concurrent result diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics().SpMVVectors.Load(); got != workers*perWorker {
		t.Errorf("spmv vectors %d, want %d", got, workers*perWorker)
	}
}

func TestSolveDrivesTwoStageSelector(t *testing.T) {
	// Empty (but non-nil) predictors run the full pipeline yet can never
	// pick a conversion, so the outcome is deterministic: stage 2 runs and
	// the conversion is "avoided".
	s, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Clock: gateClock()})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "poisson",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
		Tol:      1e-9,
	})

	// Damped Jacobi on a 2D Poisson problem converges geometrically but
	// slowly — the forced long loop: stage 1 predicts thousands of
	// remaining iterations, far past TH, so stage 2 must run.
	var sol SolveResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "jacobi", Tol: 1e-12, MaxIters: 120}, &sol)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d body %s", code, body)
	}
	if sol.Iterations != 120 || sol.Converged {
		t.Fatalf("expected a full 120-iteration run, got %+v", sol)
	}
	if !sol.Selector.Stage1Ran {
		t.Error("stage 1 never ran during the solve")
	}
	if !sol.Selector.Stage2Ran {
		t.Errorf("stage 2 never ran: %+v", sol.Selector)
	}
	if sol.Selector.Converted {
		t.Errorf("empty predictors converted the matrix: %+v", sol.Selector)
	}
	if sol.Selector.PredictedTotal < 200 {
		t.Errorf("predicted total %d, want a long loop", sol.Selector.PredictedTotal)
	}

	// The per-handle stats and global metrics must both reflect the run.
	var got MatrixInfo
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatal("get failed")
	}
	if got.SolveCalls != 1 || !got.Selector.Stage2Ran {
		t.Errorf("handle stats missed the solve: %+v", got)
	}
	if got.Selector.PredictSeconds <= 0 {
		t.Error("no prediction overhead recorded")
	}
	if s.Metrics().ConversionsAvoided.Load() != 1 {
		t.Errorf("conversions_avoided %d, want 1", s.Metrics().ConversionsAvoided.Load())
	}
	if s.Metrics().Conversions.Load() != 0 {
		t.Errorf("conversions %d, want 0", s.Metrics().Conversions.Load())
	}

	_, body = call(t, "GET", ts.URL+"/metrics", nil, nil)
	fams, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	metrics := map[string]float64{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			key := smp.Name
			for _, l := range smp.Labels {
				key += "/" + l.Value
			}
			metrics[key] = smp.Value
		}
	}
	if metrics["ocsd_solve_iterations_total"] != 120 {
		t.Errorf("metrics solve_iterations = %v, want 120", metrics["ocsd_solve_iterations_total"])
	}
	if metrics["ocsd_conversions_avoided_total"] != 1 {
		t.Errorf("metrics conversions_avoided = %v", metrics["ocsd_conversions_avoided_total"])
	}
	if got := metrics["ocsd_spmv_by_format_total/CSR"]; got < 120 {
		t.Errorf("per-format SpMV count %v, want >= 120", got)
	}
}

func TestSolvePageRank(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Without as_transition the solve must be refused with guidance.
	plain := register(t, ts.URL, RegisterRequest{
		Generate: &GenerateSpec{Family: "powerlaw", Size: 400, Degree: 5, Seed: 3},
	})
	var errResp errorResponse
	code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+plain.ID+"/solve", SolveRequest{App: "pagerank"}, &errResp)
	if code != http.StatusUnprocessableEntity || !strings.Contains(errResp.Error, "as_transition") {
		t.Fatalf("pagerank on a plain matrix: status %d error %q", code, errResp.Error)
	}

	graph := register(t, ts.URL, RegisterRequest{
		Generate:     &GenerateSpec{Family: "powerlaw", Size: 400, Degree: 5, Seed: 3},
		AsTransition: true,
	})
	if !graph.Transition {
		t.Fatal("transition flag not reported")
	}
	var sol SolveResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+graph.ID+"/solve",
		SolveRequest{App: "pagerank", IncludeX: true}, &sol)
	if code != http.StatusOK {
		t.Fatalf("pagerank: status %d body %s", code, body)
	}
	if !sol.Converged || len(sol.X) != 400 {
		t.Fatalf("pagerank did not converge or lost ranks: %+v", sol)
	}
	var sum float64
	for _, v := range sol.X {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %g, want 1", sum)
	}
}

func TestSolveTimeoutAndBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{
		Generate: &GenerateSpec{Family: "stencil2d", Size: 10000},
	})
	var errResp errorResponse
	code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "jacobi", Tol: 1e-300, MaxIters: 10_000_000, TimeoutMillis: 30}, &errResp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timeout solve: status %d error %q, want 504", code, errResp.Error)
	}
	if s.Metrics().Timeouts.Load() != 1 {
		t.Errorf("timeout counter %d, want 1", s.Metrics().Timeouts.Load())
	}

	if code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve", SolveRequest{App: "sudoku"}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown app: status %d, want 422", code)
	}
	badB := SolveRequest{App: "cg", B: []float64{1, 2, 3}}
	if code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve", badB, nil); code != http.StatusBadRequest {
		t.Errorf("wrong-length b: status %d, want 400", code)
	}
	if code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmv", PanelRequest{X: [][]float64{{1}}}, nil); code != http.StatusBadRequest {
		t.Errorf("wrong-length x: status %d, want 400", code)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	info := register(t, ts.URL, RegisterRequest{
		Generate: &GenerateSpec{Family: "stencil2d", Size: 10000},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Long-running solve occupies the only worker slot.
		call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
			SolveRequest{App: "jacobi", Tol: 1e-300, MaxIters: 10_000_000, TimeoutMillis: 500}, nil)
	}()
	for s.pool.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	x := make([]float64, info.Cols)
	code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmv", PanelRequest{X: [][]float64{x}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overload spmv: status %d, want 503", code)
	}
	if s.Metrics().QueueRejected.Load() != 1 {
		t.Errorf("queue_rejected %d, want 1", s.Metrics().QueueRejected.Load())
	}
	<-done
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
	})

	solveDone := make(chan int, 1)
	go func() {
		code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
			SolveRequest{App: "jacobi", Tol: 1e-300, MaxIters: 2000, TimeoutMillis: 120_000}, nil)
		solveDone <- code
	}()
	for s.Metrics().InFlight.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain returned: the in-flight solve must have completed...
	select {
	case code := <-solveDone:
		if code != http.StatusOK {
			t.Errorf("in-flight solve finished with %d during drain", code)
		}
	case <-time.After(time.Second):
		t.Fatal("drain returned before the in-flight solve completed")
	}
	// ...and new work is refused while health reports draining.
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices/"+info.ID, nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", code)
	}
	var health map[string]string
	if code, _ := call(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusServiceUnavailable || health["status"] != "draining" {
		t.Errorf("healthz while draining: %d %v", code, health)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var health map[string]string
	if code, _ := call(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
}
