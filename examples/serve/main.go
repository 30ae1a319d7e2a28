// Example serve: the ocsd service end to end, in one process.
//
// It starts the SpMV server on a loopback port, then acts as an HTTP
// client: registers a generated matrix, fires a batch of SpMV requests, and
// runs a CG solve whose progress drives the two-stage selector — the same
// calls a remote client would make with curl against a standalone ocsd.
//
// Run: go run ./examples/serve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func post(base, path string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%s)", path, resp.Status, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func get(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func main() {
	// The service half: normally `ocsd -addr :8080`, here in-process.
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("ocsd serving on %s\n\n", base)

	// Register a 2D Poisson system. The equivalent curl:
	//   curl -X POST $BASE/v1/matrices -d '{"name":"poisson",
	//     "generate":{"family":"stencil2d","size":10000},"tol":1e-6}'
	var info server.MatrixInfo
	if err := post(base, "/v1/matrices", server.RegisterRequest{
		Name:     "poisson",
		Generate: &server.GenerateSpec{Family: "stencil2d", Size: 10000},
		Tol:      1e-6,
	}, &info); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %s: %dx%d, %d nnz, format %s\n",
		info.ID, info.Rows, info.Cols, info.NNZ, info.Selector.Format)

	// A batch of SpMV requests against the handle.
	x := make([]float64, info.Cols)
	for i := range x {
		x[i] = 1
	}
	var sr server.PanelResponse
	if err := post(base, "/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x, x, x}}, &sr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spmv batch of %d served on %s\n", len(sr.Y), sr.Format)

	// A CG solve. Its per-iteration residuals feed the selector's stage-1
	// tripcount predictor; on a long loop stage 2 would convert the matrix
	// (with trained predictors loaded — see ocsd -train / -models).
	var sol server.SolveResponse
	if err := post(base, "/v1/matrices/"+info.ID+"/solve",
		server.SolveRequest{App: "cg", Tol: 1e-6, MaxIters: 2000}, &sol); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cg: %d iterations, converged=%v, residual %.3g, %.1f ms\n",
		sol.Iterations, sol.Converged, sol.Residual, sol.DurationMillis)
	fmt.Printf("selector: stage1=%v predicted_total=%d stage2=%v converted=%v\n",
		sol.Selector.Stage1Ran, sol.Selector.PredictedTotal,
		sol.Selector.Stage2Ran, sol.Selector.Converted)

	// Handle stats and server metrics, as any dashboard would read them.
	var stats server.MatrixInfo
	if err := get(base, "/v1/matrices/"+info.ID, &stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handle: %d spmv calls, %d solves, selector overhead %.3g s\n",
		stats.SpMVCalls, stats.SolveCalls,
		stats.Selector.FeatureSeconds+stats.Selector.PredictSeconds+stats.Selector.ConvertSeconds)
	// The Prometheus text a scraper would read, parsed with the repo's own
	// exposition parser.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fams, err := obs.ParseText(string(text))
	if err != nil {
		log.Fatal(err)
	}
	metrics := map[string]float64{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			if len(smp.Labels) == 0 {
				metrics[smp.Name] = smp.Value
			}
		}
	}
	fmt.Printf("metrics: requests=%v solve_iterations=%v registry_nnz=%v\n",
		metrics["ocsd_requests_total"], metrics["ocsd_solve_iterations_total"], metrics["ocsd_registry_nnz"])

	// Graceful shutdown: drain in-flight work, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	_ = httpSrv.Shutdown(ctx)
	fmt.Println("\ndrained and stopped")
}
