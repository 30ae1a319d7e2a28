package server

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// get fetches a URL raw, returning status, Content-Type and body.
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// driveSolve registers a stencil matrix and runs a long Jacobi solve so the
// selector pipeline fires and every latency histogram gets observations.
func driveSolve(t *testing.T, base string) MatrixInfo {
	t.Helper()
	info := register(t, base, RegisterRequest{
		Name:     "poisson",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
	})
	var sol SolveResponse
	code, body := call(t, "POST", base+"/v1/matrices/"+info.ID+"/solve",
		SolveRequest{App: "jacobi", Tol: 1e-12, MaxIters: 120}, &sol)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d body %s", code, body)
	}
	if !sol.Selector.Stage2Ran {
		t.Fatalf("stage 2 never ran: %+v", sol.Selector)
	}
	if sol.SpMVCalls != 120 {
		t.Fatalf("solve reported %d SpMV calls, want 120 (Jacobi is 1/iter)", sol.SpMVCalls)
	}
	return info
}

// TestMetricsPrometheusExposition is the acceptance check: the default
// /metrics response must be valid Prometheus text carrying at least the six
// latency histogram families, verified by the package's own parser.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Clock: gateClock()})
	driveSolve(t, ts.URL)

	code, ctype, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if ctype != obs.ContentType {
		t.Errorf("Content-Type %q, want %q", ctype, obs.ContentType)
	}
	fams, err := ParseExposition(t, body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]string{}
	for _, f := range fams {
		byName[f.Name] = f.Type
	}
	wantHists := []string{
		"ocsd_spmv_seconds",
		"ocsd_solve_seconds",
		"ocsd_queue_wait_seconds",
		"ocsd_feature_seconds",
		"ocsd_predict_seconds",
		"ocsd_convert_seconds",
	}
	nhist := 0
	for _, typ := range byName {
		if typ == "histogram" {
			nhist++
		}
	}
	if nhist < 6 {
		t.Errorf("exposition has %d histogram families, want >= 6", nhist)
	}
	for _, name := range wantHists {
		if byName[name] != "histogram" {
			t.Errorf("family %s missing or not a histogram (got %q)", name, byName[name])
		}
	}
	for _, name := range []string{"ocsd_spmv_by_format_total", "ocsd_decision_traces"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	// The solve above must be visible: 120 SpMV calls on CSR, and the solve
	// histogram holds exactly one observation.
	if !strings.Contains(body, `ocsd_spmv_by_format_total{format="CSR"} 120`) {
		t.Error("per-format SpMV counter does not show the 120-call solve")
	}
	if !strings.Contains(body, "ocsd_solve_seconds_count 1") {
		t.Error("solve histogram count != 1")
	}
}

// TestMetricFamiliesPinned compares the families a default server with a
// predictor bundle exposes — name and type, in exposition order — with the
// checked-in list in testdata/metric_families.txt, so a family added to or
// dropped from /metrics shows up as a diff in review.
func TestMetricFamiliesPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{Preds: core.NewPredictors()})
	_, _, body := get(t, ts.URL+"/metrics")
	fams, err := ParseExposition(t, body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	var got []string
	for _, f := range fams {
		got = append(got, f.Name+" "+f.Type)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "metric_families.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !slices.Equal(got, want) {
		t.Errorf("/metrics families differ from testdata/metric_families.txt; got %d:\n%s\nwant %d:\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// ParseExposition adapts obs.ParseText for tests in this package.
func ParseExposition(t *testing.T, body string) ([]obs.ParsedFamily, error) {
	t.Helper()
	return obs.ParseText(body)
}

func TestBuildInfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var bi BuildInfo
	code, body := call(t, "GET", ts.URL+"/buildinfo", nil, &bi)
	if code != http.StatusOK {
		t.Fatalf("status %d body %s", code, body)
	}
	if bi.GoVersion == "" || bi.GOMAXPROCS < 1 || bi.GOOS == "" {
		t.Errorf("incomplete build info: %+v", bi)
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Clock: gateClock()})

	var empty DecisionsResponse
	if code, _ := call(t, "GET", ts.URL+"/debug/decisions", nil, &empty); code != http.StatusOK || empty.Count != 0 {
		t.Fatalf("fresh journal: code %d count %d", code, empty.Count)
	}

	driveSolve(t, ts.URL)

	var dr DecisionsResponse
	if code, _ := call(t, "GET", ts.URL+"/debug/decisions", nil, &dr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if dr.Count != 1 || len(dr.Traces) != 1 {
		t.Fatalf("decisions = %+v, want exactly 1 trace", dr)
	}
	tr := dr.Traces[0]
	if !tr.Stage2Ran || tr.Label != "poisson" || len(tr.Gates) < 1 {
		t.Errorf("trace = %+v", tr)
	}
	if tr.Ledger.BaselineSpMVSeconds <= 0 || tr.Ledger.PostSpMVCalls <= 0 {
		t.Errorf("ledger not live: %+v", tr.Ledger)
	}

	if code, _, _ := get(t, ts.URL+"/debug/decisions?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Clock: gateClock()})

	// A handle whose pipeline has not run yet answers 409, not 404.
	fresh := register(t, ts.URL, RegisterRequest{
		Name:     "idle",
		Generate: &GenerateSpec{Family: "banded", Size: 400, Degree: 3},
	})
	if code, _, _ := get(t, ts.URL+"/v1/trace/"+fresh.ID); code != http.StatusConflict {
		t.Errorf("pre-pipeline trace: status %d, want 409", code)
	}
	if code, _, _ := get(t, ts.URL+"/v1/trace/nope"); code != http.StatusNotFound {
		t.Errorf("unknown handle: status %d, want 404", code)
	}

	info := driveSolve(t, ts.URL)
	var tr obs.DecisionTrace
	code, body := call(t, "GET", ts.URL+"/v1/trace/"+info.ID, nil, &tr)
	if code != http.StatusOK {
		t.Fatalf("trace: status %d body %s", code, body)
	}
	if !tr.Stage2Ran || tr.Chosen == "" || tr.Ledger.PostSpMVCalls <= 0 {
		t.Errorf("trace = %+v", tr)
	}

	// The matrix info response carries the trace ID for discoverability.
	var got MatrixInfo
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatal("get failed")
	}
	if got.TraceID != tr.ID {
		t.Errorf("info trace_id %d != trace id %d", got.TraceID, tr.ID)
	}
}

func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if code, _, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof served without -pprof: status %d", code)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	code, _, body := get(t, on.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Errorf("pprof index: status %d", code)
	}
}
