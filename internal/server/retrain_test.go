package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/retrain"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// constBundle trains a deterministic constant predictor bundle: GBT on
// constant targets reproduces the constant exactly, for any input vector.
func constBundle(t *testing.T, spmvNorm, convNorm float64) *core.Predictors {
	t.Helper()
	samples := make([]trainer.Sample, 2)
	for i := range samples {
		m, err := matgen.Generate(matgen.Spec{
			Name: "seed", Family: matgen.FamBanded, Size: 300, Degree: 8, Seed: int64(90 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = trainer.Sample{
			Name:     "seed",
			Features: features.Extract(m).Vector(),
			CSRTime:  1e-3,
			SpMVNorm: map[sparse.Format]float64{sparse.FmtCSR: 1, sparse.FmtELL: spmvNorm},
			ConvNorm: map[sparse.Format]float64{sparse.FmtELL: convNorm},
		}
	}
	p, err := trainer.Train(samples, gbt.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// retrainSelector scripts every selector timing with a fake clock (each
// timed region measures exactly one auto-step), mirroring the core replay
// tests so the whole server pipeline becomes deterministic.
func retrainSelector(clk timing.Clock) *core.Config {
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	cfg.GateOverheadFactor = 10
	cfg.PredictFixedSeconds = 1e-3
	cfg.FeatureSecondsPerNNZ = 1e-15
	return &cfg
}

// solveJacobi registers a stencil matrix and runs the non-converging
// 120-iteration Jacobi workload (decision at K=15, 105 post-decision calls).
func solveJacobi(t *testing.T, base string, seed int64) (MatrixInfo, SolveResponse) {
	t.Helper()
	info := register(t, base, RegisterRequest{
		Name:     "drift",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600, Seed: seed},
	})
	var sol SolveResponse
	code, body := call(t, "POST", base+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "jacobi", Tol: 1e-12, MaxIters: 120}, &sol)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d body %s", code, body)
	}
	return info, sol
}

// TestRetrainEndToEndRegretDrop is the acceptance test for the online
// retraining loop: a server booted with a mis-trained seed bundle (ELL
// allegedly 20x faster than CSR) converts every handle and piles up regret;
// the retrainer harvests those traces, detects the drift, retrains on the
// locally measured timings, hot-swaps generation 1 in — and the replayed
// workload then stays on CSR with strictly lower per-trace regret. The swap
// is asserted through /debug/retrain and /metrics, exactly what an operator
// would look at.
func TestRetrainEndToEndRegretDrop(t *testing.T) {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	seed := constBundle(t, 0.05, 0.0) // "conversion is free and 20x faster": wrong on both counts
	s, ts := newTestServer(t, Config{
		Preds:         seed,
		Selector:      retrainSelector(clk),
		SerialKernels: true,
		Workers:       1,
		// stencil2d ignores Seed, so the five drift matrices are identical;
		// the conversion cache would satisfy handles 2-5 for free and starve
		// the harvester of measured conversion timings. This scenario is
		// about repeated independent conversions, so disable the cache.
		ConvCacheNNZ: -1,
	})
	loop, err := retrain.New(retrain.Config{
		Journal:    s.Journal(),
		Target:     s,
		Clock:      clk,
		MinSamples: 4,
		MinWindow:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachRetrain(loop)

	// Phase 1: the mis-trained model converts everything. With the scripted
	// clock the realized post-decision calls run at exactly baseline speed
	// (normalized 1.0) against a promise of 0.05 — relative error 0.95.
	const phase = 5
	var preRegret float64
	for i := 0; i < phase; i++ {
		info, sol := solveJacobi(t, ts.URL, int64(100+i))
		if !sol.Selector.Converted || sol.Format != sparse.FmtELL.String() {
			t.Fatalf("mis-trained seed did not convert handle %d: %+v", i, sol.Selector)
		}
		tr := traceFor(t, s, ts.URL, info.ID)
		if tr.Ledger.RegretSeconds <= 0 {
			t.Fatalf("converted handle %d has no regret: %+v", i, tr.Ledger)
		}
		preRegret += tr.Ledger.RegretSeconds
	}
	preRegret /= phase

	// The retrainer sees the contradiction and swaps generation 1 in.
	res := loop.Tick()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Harvested != phase || len(res.Drifted) == 0 || !res.Swapped || res.Generation != 1 {
		t.Fatalf("tick = %+v, want %d harvested and a swap to generation 1", res, phase)
	}
	if p := s.Predictors(); p == nil || p.Generation != 1 {
		t.Fatalf("server bundle generation = %v, want 1", p)
	}

	// Phase 2: replay the same workload on fresh handles. The retrained
	// model predicts the measured truth (ELL == CSR speed, conversion not
	// free), so the selector now stays on CSR and the only regret left is
	// the stage-1/stage-2 bookkeeping itself.
	var postRegret float64
	for i := 0; i < phase; i++ {
		info, sol := solveJacobi(t, ts.URL, int64(200+i))
		if sol.Selector.Converted {
			t.Fatalf("post-swap handle %d converted against the retrained model: %+v", i, sol.Selector)
		}
		tr := traceFor(t, s, ts.URL, info.ID)
		if tr.ModelGen != 1 {
			t.Errorf("post-swap trace made with generation %d, want 1", tr.ModelGen)
		}
		postRegret += tr.Ledger.RegretSeconds
	}
	postRegret /= phase
	if postRegret >= preRegret {
		t.Fatalf("regret did not drop: pre-swap %g, post-swap %g", preRegret, postRegret)
	}

	// Operator view: /debug/retrain reports the swap...
	var rr RetrainResponse
	if code, body := call(t, "GET", ts.URL+"/debug/retrain", nil, &rr); code != http.StatusOK {
		t.Fatalf("/debug/retrain: status %d body %s", code, body)
	}
	if !rr.Enabled || rr.Status == nil || rr.Status.Generation != 1 || rr.Status.Swaps != 1 {
		t.Fatalf("/debug/retrain = %+v, want enabled with generation/swaps = 1/1", rr)
	}
	if rr.Status.DriftEvents == 0 || rr.Status.Retrains != 1 {
		t.Errorf("/debug/retrain drift/retrains = %d/%d, want >0/1", rr.Status.DriftEvents, rr.Status.Retrains)
	}
	// ...and so does /metrics.
	_, _, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"ocsd_retrain_generation 1",
		"ocsd_retrain_swaps_total 1",
		"ocsd_retrain_retrains_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// traceFor resolves a handle's decision trace through the public endpoint.
func traceFor(t *testing.T, s *Server, base, id string) obs.DecisionTrace {
	t.Helper()
	var tr obs.DecisionTrace
	code, body := call(t, "GET", base+"/v1/trace/"+id, nil, &tr)
	if code != http.StatusOK {
		t.Fatalf("trace %s: status %d body %s", id, code, body)
	}
	return tr
}

// TestServerHotSwapUnderTraffic hammers /v1 spmv+solve traffic while
// SetPredictors hot-swaps bundles with increasing generations — the server
// half of the retrainer's race contract (run under -race in CI). Every
// request must succeed and the final published generation must win.
func TestServerHotSwapUnderTraffic(t *testing.T) {
	base := constBundle(t, 0.9, 0.5)
	s, ts := newTestServer(t, Config{Preds: base, Selector: testSelector()})

	const handles = 3
	ids := make([]string, handles)
	for i := range ids {
		info := register(t, ts.URL, RegisterRequest{
			Name:     "hammer",
			Generate: &GenerateSpec{Family: "stencil2d", Size: 900, Seed: int64(i)},
		})
		ids[i] = info.ID
	}

	const (
		clients     = 4
		perClient   = 12
		generations = 30
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := int64(1); g <= generations; g++ {
			p := base.Clone()
			p.Generation = g
			s.SetPredictors(p)
		}
	}()
	x := make([]float64, 900)
	for i := range x {
		x[i] = 1
	}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := ids[(c+i)%handles]
				var resp PanelResponse
				code, body := call(t, "POST", ts.URL+"/v1/matrices/"+id+"/spmv",
					PanelRequest{X: [][]float64{x}}, &resp)
				if code != http.StatusOK {
					t.Errorf("spmv under swap: status %d body %s", code, body)
					return
				}
				var sol SolveResponse
				code, body = call(t, "POST", ts.URL+"/v1/matrices/"+id+"/solve",
					SolveRequest{App: "jacobi", Tol: 1e-12, MaxIters: 25}, &sol)
				if code != http.StatusOK {
					t.Errorf("solve under swap: status %d body %s", code, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if p := s.Predictors(); p == nil || p.Generation != generations {
		t.Fatalf("final bundle generation = %v, want %d", p, generations)
	}
	// Every registered handle saw the last walk.
	for _, id := range ids {
		h, ok := s.Registry().Get(id)
		if !ok {
			t.Fatalf("handle %s vanished", id)
		}
		if g := h.SA.ModelGeneration(); g != generations {
			t.Errorf("handle %s generation = %d, want %d", id, g, generations)
		}
	}
}
