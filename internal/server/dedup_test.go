package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// These tests cover the multi-tenant serving features: registry dedup (a
// second registration of an identical matrix aliases the resident copy), the
// cross-handle conversion cache (the second tenant's stage 2 adopts a
// published conversion for free), and the blocked SpMM endpoint.

func TestDedupAliasAndDeleteLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Selector: testSelector()})
	spec := &GenerateSpec{Family: "banded", Size: 500, Degree: 5, Seed: 42}
	a := register(t, ts.URL, RegisterRequest{Name: "orig", Generate: spec})
	b := register(t, ts.URL, RegisterRequest{Name: "copy", Generate: spec})

	if a.DuplicateOf != "" {
		t.Errorf("original marked duplicate_of %q", a.DuplicateOf)
	}
	if b.DuplicateOf != a.ID {
		t.Fatalf("duplicate_of = %q, want %q", b.DuplicateOf, a.ID)
	}
	if b.Fingerprint != a.Fingerprint || b.ValueDigest != a.ValueDigest {
		t.Fatalf("alias identity mismatch: %+v vs %+v", b, a)
	}
	if got := s.Metrics().DedupHits.Load(); got != 1 {
		t.Errorf("dedup_hits = %d, want 1", got)
	}
	if got := s.Metrics().DedupSavedNNZ.Load(); got != int64(a.NNZ) {
		t.Errorf("dedup_saved_nnz = %d, want %d", got, a.NNZ)
	}

	// The pair is charged once against the nnz budget.
	var list ListResponse
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if len(list.Matrices) != 2 || list.RegistryNNZ != int64(a.NNZ) {
		t.Fatalf("list after alias: %d matrices, registry_nnz %d, want 2 / %d",
			len(list.Matrices), list.RegistryNNZ, a.NNZ)
	}

	// Deleting the charged original must not strand the alias: the shared
	// arrays stay resident, the charge transfers, and the alias still solves.
	if code, _ := call(t, "DELETE", ts.URL+"/v1/matrices/"+a.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete original: status %d", code)
	}
	x := make([]float64, b.Cols)
	for i := range x {
		x[i] = 1
	}
	var sr PanelResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+b.ID+"/spmv", PanelRequest{X: [][]float64{x}}, &sr)
	if code != http.StatusOK {
		t.Fatalf("spmv on surviving alias: status %d body %s", code, body)
	}
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if len(list.Matrices) != 1 || list.RegistryNNZ != int64(a.NNZ) {
		t.Fatalf("after deleting charged member: %d matrices, registry_nnz %d, want 1 / %d",
			len(list.Matrices), list.RegistryNNZ, a.NNZ)
	}

	// Only the last member's departure releases capacity.
	if code, _ := call(t, "DELETE", ts.URL+"/v1/matrices/"+b.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete alias: status %d", code)
	}
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if len(list.Matrices) != 0 || list.RegistryNNZ != 0 {
		t.Fatalf("registry not empty after last delete: %+v", list)
	}
}

// TestSecondTenantAdoptsCachedConversion is the acceptance test for the
// conversion cache: with a bundle that sends every tenant to ELL, the first
// registration pays the conversion and publishes it; a second registration of
// the identical matrix dedup-aliases the storage and its stage 2 adopts the
// cached ELL copy — zero conversion work on its own ledger, the publisher's
// bill accounted as hidden, and the convcache/dedup metric families visible
// on /metrics.
func TestSecondTenantAdoptsCachedConversion(t *testing.T) {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	seed := constBundle(t, 0.05, 0.0)
	_, ts := newTestServer(t, Config{
		Preds:    seed,
		Selector: scriptedSelector(clk),
		Workers:  1,
	})

	info1, sol1 := solveJacobi(t, ts.URL, 1)
	if !sol1.Selector.Converted || sol1.Selector.Format != "ELL" {
		t.Fatalf("first tenant did not convert to ELL: %+v", sol1.Selector)
	}
	if sol1.Selector.ConvCacheHit {
		t.Fatalf("first tenant cannot hit an empty cache: %+v", sol1.Selector)
	}
	if sol1.Selector.ConvertSeconds <= 0 {
		t.Fatalf("first tenant's conversion not measured: %+v", sol1.Selector)
	}

	info2, sol2 := solveJacobi(t, ts.URL, 2)
	if info2.DuplicateOf != info1.ID {
		t.Fatalf("second registration duplicate_of = %q, want %q", info2.DuplicateOf, info1.ID)
	}
	st := sol2.Selector
	if !st.ConvCacheHit {
		t.Fatalf("second tenant missed the conversion cache: %+v", st)
	}
	if !st.Converted || st.Format != "ELL" {
		t.Fatalf("second tenant did not adopt the cached ELL copy: %+v", st)
	}
	// Zero conversion work on this handle; the publisher's measured bill is
	// credited as hidden overhead, never as paid conversion time.
	if st.ConvertSeconds != 0 {
		t.Errorf("cache hit billed convert_seconds %g, want 0", st.ConvertSeconds)
	}
	if st.HiddenSeconds != sol1.Selector.ConvertSeconds {
		t.Errorf("hidden_seconds %g, want the publisher's bill %g",
			st.HiddenSeconds, sol1.Selector.ConvertSeconds)
	}
	if st.PaidSeconds >= sol1.Selector.ConvertSeconds+st.FeatureSeconds+st.PredictSeconds {
		t.Errorf("paid_seconds %g includes a conversion that never ran", st.PaidSeconds)
	}

	// Both solves must agree bit-for-bit (they run the same matrix, one on a
	// fresh conversion and one on the cached copy).
	if sol1.Residual != sol2.Residual {
		t.Errorf("residuals diverge across cache adoption: %g vs %g", sol1.Residual, sol2.Residual)
	}

	code, _, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, frag := range []string{
		"ocsd_convcache_hits_total 1",
		"ocsd_convcache_publishes_total 1",
		"ocsd_dedup_hits_total 1",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("/metrics missing %q", frag)
		}
	}
	if _, err := ParseExposition(t, body); err != nil {
		t.Fatalf("exposition with convcache families does not parse: %v", err)
	}
}

func TestSpMMEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Selector: testSelector()})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "banded",
		Generate: &GenerateSpec{Family: "banded", Size: 400, Degree: 5, Seed: 7},
	})
	local, err := matgen.Generate(matgen.Spec{
		Name: "banded", Family: matgen.FamBanded, Size: 400, Degree: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	const k = 3
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, info.Cols)
		for j := range xs[i] {
			xs[i][j] = float64((i+2)*(j%11)) - 3.5
		}
	}
	var resp PanelResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmm", PanelRequest{X: xs}, &resp)
	if code != http.StatusOK {
		t.Fatalf("spmm: status %d body %s", code, body)
	}
	if resp.K != k || len(resp.Y) != k {
		t.Fatalf("spmm returned k=%d with %d vectors, want %d", resp.K, len(resp.Y), k)
	}
	want := make([]float64, info.Rows)
	for i := range xs {
		local.SpMV(want, xs[i])
		for r := range want {
			if math.Abs(resp.Y[i][r]-want[r]) > 1e-12*(1+math.Abs(want[r])) {
				t.Fatalf("y[%d][%d] = %g, want %g", i, r, resp.Y[i][r], want[r])
			}
		}
	}

	// The same panel again is the same product, bit for bit.
	var again PanelResponse
	code, body = call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmm", PanelRequest{X: xs}, &again)
	if code != http.StatusOK {
		t.Fatalf("second spmm: status %d body %s", code, body)
	}
	for i := range xs {
		for r := range want {
			if again.Y[i][r] != resp.Y[i][r] {
				t.Fatalf("second y[%d][%d] = %g, the first product has %g", i, r, again.Y[i][r], resp.Y[i][r])
			}
		}
	}

	// Error paths: empty batch, ragged vector, and a row range, which is an
	// unknown field since partial products were retired.
	if code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmm", PanelRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty x: status %d, want 400", code)
	}
	if code, _ := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmm",
		PanelRequest{X: [][]float64{make([]float64, info.Cols-1)}}, nil); code != http.StatusBadRequest {
		t.Errorf("ragged x: status %d, want 400", code)
	}
	ranged, err := json.Marshal(map[string]any{"x": xs, "row_lo": 10, "row_hi": 50})
	if err != nil {
		t.Fatal(err)
	}
	if code, reply, _ := postRaw(t, ts.URL+"/v1/matrices/"+info.ID+"/spmm", ranged); code != http.StatusBadRequest || !strings.Contains(string(reply), "unknown field") {
		t.Errorf("row range: status %d body %s, want 400 unknown field", code, reply)
	}

	if got := s.Metrics().SpMMRequests.Load(); got != 2 {
		t.Errorf("spmm_requests = %d, want 2", got)
	}
	if got := s.Metrics().SpMMColumns.Load(); got != 2*k {
		t.Errorf("spmm_columns = %d, want %d", got, 2*k)
	}
}

// TestSpMMReplySameBytesAcrossFormatSwap: blocked products run on the CSR
// master whatever the selector has done to the handle, so the same request
// gets the same reply, byte for byte, before and after a solve converts the
// handle's SpMV format.
func TestSpMMReplySameBytesAcrossFormatSwap(t *testing.T) {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	_, ts := newTestServer(t, Config{
		Preds:    constBundle(t, 0.05, 0.0),
		Selector: scriptedSelector(clk),
	})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "swap",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
	})
	xs := make([][]float64, 5)
	for i := range xs {
		xs[i] = make([]float64, info.Cols)
		for j := range xs[i] {
			xs[i][j] = float64((i+3)*(j%13))/7 - 2.25
		}
	}
	spmm := func() []byte {
		t.Helper()
		code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/spmm", PanelRequest{X: xs}, nil)
		if code != http.StatusOK {
			t.Fatalf("spmm: status %d body %s", code, body)
		}
		return body
	}
	before := spmm()
	var sol SolveResponse
	code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "jacobi", Tol: 1e-12, MaxIters: 120}, &sol)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d body %s", code, body)
	}
	if !sol.Selector.Converted || sol.Selector.Format != "ELL" {
		t.Fatalf("the solve did not convert the handle to ELL: %+v", sol.Selector)
	}
	if after := spmm(); !bytes.Equal(before, after) {
		t.Fatalf("/spmm reply changed with the handle's SpMV format:\nbefore %.120s\nafter  %.120s", before, after)
	}
}

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

// scriptedSelector scripts every selector timing with a fake clock (each
// timed region measures exactly one auto-step), mirroring the core replay
// tests so the whole server pipeline becomes deterministic.
func scriptedSelector(clk timing.Clock) *core.Config {
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
