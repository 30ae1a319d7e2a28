package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// clusterBundle trains a deterministic constant predictor bundle (GBT on
// constant targets reproduces the constant for any input): ELL SpMV at half
// the CSR per-call cost, conversion worth two CSR calls — so any solve with
// a healthy remaining-iteration estimate converts.
func clusterBundle(t *testing.T) *core.Predictors {
	t.Helper()
	samples := make([]trainer.Sample, 2)
	for i := range samples {
		m, err := matgen.Generate(matgen.Spec{
			Name: "seed", Family: matgen.FamBanded, Size: 300, Degree: 8, Seed: int64(70 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = trainer.Sample{
			Name:     "seed",
			Features: features.Extract(m).Vector(),
			CSRTime:  1e-3,
			SpMVNorm: map[sparse.Format]float64{sparse.FmtCSR: 1, sparse.FmtELL: 0.5},
			ConvNorm: map[sparse.Format]float64{sparse.FmtELL: 2},
		}
	}
	p, err := trainer.Train(samples, gbt.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tracedCluster builds n shards whose selectors can actually convert
// (predictors + deterministic gate, synchronous stage 2 so all overhead is
// paid) behind a router.
func tracedCluster(t *testing.T, n int) ([]*flakyShard, *Router, *httptest.Server) {
	t.Helper()
	preds := clusterBundle(t)
	shards := make([]*flakyShard, n)
	urls := make([]string, n)
	for i := range shards {
		s := server.New(server.Config{
			Logger:   quietLogger(),
			Preds:    preds,
			Selector: &core.Config{K: 15, TH: 15, Margin: 0.1},
		})
		f := &flakyShard{}
		f.ts = httptest.NewServer(s.Handler())
		t.Cleanup(f.ts.Close)
		shards[i] = f
		urls[i] = f.ts.URL
	}
	router, err := New(Config{
		Shards:        urls,
		ProbeInterval: time.Hour,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	return shards, router, ts
}

// collectSpans flattens an assembled span forest.
func collectSpans(nodes []*SpanTreeNode) []obs.Span {
	var out []obs.Span
	var rec func(ns []*SpanTreeNode)
	rec = func(ns []*SpanTreeNode) {
		for _, n := range ns {
			out = append(out, n.Span)
			rec(n.Children)
		}
	}
	rec(nodes)
	return out
}

type SpanTreeNode = obs.SpanNode

// TestDistributedSolveTraceTree is the end-to-end tracing acceptance test:
// one solve through the router over a 2-way row-partitioned handle yields a
// single trace ID whose assembled tree contains the router request span,
// one RPC span per shard round trip, the shard-side request/stage spans,
// and conversion spans whose paid/hidden attributes agree with the
// aggregated T_affected ledger.
func TestDistributedSolveTraceTree(t *testing.T) {
	_, _, ts := tracedCluster(t, 2)

	req := spdSpec("traced")
	req.Partition = &PartitionSpec{Parts: 2}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if !info.Partitioned || len(info.Parts) != 2 {
		t.Fatalf("expected a 2-way split, got %+v", info)
	}

	// A deliberately non-converging Jacobi run: the progress hook keeps
	// reporting plenty of remaining iterations, so both block selectors
	// open their lazy gate at K and stage 2 converts mid-solve.
	blob, code, hdr := postJSONHeader(t, ts.URL+"/v1/matrices/"+info.ID+"/solve",
		server.SolveRequest{App: "jacobi", Tol: 1e-14, MaxIters: 60})
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, blob)
	}
	var sol SolveResponse
	decodeJSON(t, blob, &sol)
	sc, ok := obs.ParseTraceHeader(hdr.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("solve response carries no %s header (%q)", obs.TraceHeader, hdr.Get(obs.TraceHeader))
	}
	if !sol.Selector.Converted {
		t.Fatalf("distributed solve did not convert; selector = %+v", sol.Selector)
	}

	var tree TraceTreeResponse
	if code, body := callJSON(t, http.MethodGet, ts.URL+"/v1/trace/"+sc.Trace.String(), nil, &tree); code != http.StatusOK {
		t.Fatalf("trace tree: %d %s", code, body)
	}
	if len(tree.Shards) != 2 {
		t.Errorf("tree assembled from shards %v, want both", tree.Shards)
	}
	roots := tree.Tree
	if len(roots) != 1 || roots[0].Name != "ocsrouter.solve" {
		t.Fatalf("tree roots = %+v, want single ocsrouter.solve", rootNames(roots))
	}

	spans := collectSpans(roots)
	rpcShards := map[string]bool{}
	services := map[string]bool{}
	count := map[string]int{}
	var convertPaid float64
	converts := 0
	for _, sp := range spans {
		count[sp.Name]++
		services[sp.Service] = true
		if sp.Name == "rpc.spmv" {
			rpcShards[sp.Attrs["shard"]] = true
		}
		if sp.Name == "selector.convert" {
			converts++
			convertPaid += atof(t, sp.Attrs["paid_seconds"])
			if sp.Attrs["decision_id"] == "" {
				t.Error("conversion span lacks its DecisionTrace linkage")
			}
		}
	}
	for _, want := range []string{"rpc.spmv", "ocsd.spmv", "queue.wait", "spmv.compute", "selector.stage1", "selector.decide"} {
		if count[want] == 0 {
			t.Errorf("span %q absent from assembled tree (have %v)", want, count)
		}
	}
	if len(rpcShards) != 2 {
		t.Errorf("rpc spans name shards %v, want 2 distinct", rpcShards)
	}
	if !services["ocsrouter"] || !services["ocsd"] || !services["selector"] {
		t.Errorf("services in tree = %v, want router+shard+selector", services)
	}
	if converts != 2 {
		t.Errorf("%d conversion spans, want one per block", converts)
	}

	// Ledger agreement: the conversion spans' paid attributes must sum to
	// the aggregated selector ledger the solve response reported.
	if !near(convertPaid, sol.Selector.PaidSeconds) {
		t.Errorf("conversion spans paid %g, ledger says %g", convertPaid, sol.Selector.PaidSeconds)
	}
	if sol.Selector.HiddenSeconds != 0 {
		t.Errorf("a pipeline with no cache hit reported hidden overhead %g", sol.Selector.HiddenSeconds)
	}
}

// postJSONHeader posts a JSON body and returns the raw response body,
// status, and headers (callJSON discards headers, and the trace test needs
// the echoed OCS-Trace).
func postJSONHeader(t *testing.T, url string, in any) ([]byte, int, http.Header) {
	t.Helper()
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode, resp.Header
}

func decodeJSON(t *testing.T, blob []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatalf("decoding %s: %v", blob, err)
	}
}

func rootNames(roots []*SpanTreeNode) []string {
	names := make([]string, len(roots))
	for i, r := range roots {
		names[i] = r.Name
	}
	return names
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing span attr %q: %v", s, err)
	}
	return v
}

// near compares ledger seconds with a relative tolerance: both sides are
// sums of the same measurements, so only float formatting noise separates
// them.
func near(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > scale {
		scale = b
	}
	return diff <= 1e-9*scale+1e-12
}
