package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// flakyShard wraps a real ocsd server so tests can inject 503s (the
// overloaded/draining answer) without killing the process.
type flakyShard struct {
	ts   *httptest.Server
	deny atomic.Bool
}

// newShard starts a real in-process ocsd (no predictors: stage 2 disabled,
// matrices stay CSR, so cross-shard results can be compared bit-for-bit).
func newShard(t *testing.T) *flakyShard {
	t.Helper()
	s := server.New(server.Config{Logger: quietLogger()})
	f := &flakyShard{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.deny.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"injected overload"}`)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newCluster starts n shards and a router over them.
func newCluster(t *testing.T, n int, tune func(*Config)) ([]*flakyShard, *Router, *httptest.Server) {
	t.Helper()
	shards := make([]*flakyShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newShard(t)
		urls[i] = shards[i].ts.URL
	}
	cfg := Config{
		Shards:        urls,
		ProbeInterval: time.Hour, // tests drive health transitions themselves
		Logger:        quietLogger(),
	}
	if tune != nil {
		tune(&cfg)
	}
	router, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	return shards, router, ts
}

// callJSON sends in as a JSON request (an io.Reader is streamed as it is) and
// decodes the response into out.
func callJSON(t *testing.T, method, url string, in, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if r, ok := in.(io.Reader); ok {
		rd = r
	} else if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, body, err)
		}
	}
	return resp.StatusCode, body
}

// spdSpec is the shared test matrix: SPD so CG converges, big enough that a
// 2-way row split is non-trivial.
func spdSpec(name string) RegisterRequest {
	return RegisterRequest{
		RegisterRequest: server.RegisterRequest{
			Name:     name,
			Generate: &server.GenerateSpec{Family: "spd", Size: 400, Degree: 8, Seed: 11},
		},
	}
}

// oracle registers the same matrix on a standalone single-process ocsd and
// returns its spmv product and CG solution — the ground truth the cluster
// answers must reproduce bit-for-bit (both sides stay CSR).
func oracle(t *testing.T) (y []float64, x []float64, solveX []float64, iters int) {
	t.Helper()
	single := newShard(t)
	var info server.MatrixInfo
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices", spdSpec("oracle").RegisterRequest, &info); code != http.StatusCreated {
		t.Fatalf("oracle register: %d %s", code, body)
	}
	x = make([]float64, info.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	var sp server.PanelResponse
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
		t.Fatalf("oracle spmv: %d %s", code, body)
	}
	var sol server.SolveResponse
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices/"+info.ID+"/solve",
		server.SolveRequest{App: "cg", Tol: 1e-8, MaxIters: 500, IncludeX: true}, &sol); code != http.StatusOK {
		t.Fatalf("oracle solve: %d %s", code, body)
	}
	if !sol.Converged {
		t.Fatalf("oracle CG did not converge: %+v", sol)
	}
	return sp.Y[0], x, sol.X, sol.Iterations
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRouterWholeHandleMatchesSingleShard(t *testing.T) {
	wantY, x, wantX, wantIters := oracle(t)
	_, router, ts := newCluster(t, 2, nil)

	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("whole"), &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if info.Partitioned || info.Primary == nil {
		t.Fatalf("expected whole-handle placement, got %+v", info)
	}
	if info.Fingerprint == "" {
		t.Error("route carries no structure fingerprint")
	}

	var sp PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	if len(sp.ServedBy) != 1 || sp.ServedBy[0] != info.Primary.Shard {
		t.Errorf("served_by = %v, want the primary %s", sp.ServedBy, info.Primary.Shard)
	}
	if !bitEqual(sp.Y[0], wantY) {
		t.Error("routed spmv differs from single-shard product")
	}

	var sol SolveResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/solve",
		server.SolveRequest{App: "cg", Tol: 1e-8, MaxIters: 500, IncludeX: true}, &sol); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	if !sol.Converged || sol.Iterations != wantIters {
		t.Errorf("solve converged=%v iters=%d, oracle iters=%d", sol.Converged, sol.Iterations, wantIters)
	}
	if !bitEqual(sol.X, wantX) {
		t.Error("routed solve differs from single-shard solution")
	}
	if router.Metrics().PrimaryHits.Load() == 0 {
		t.Error("primary-hit counter never moved")
	}
}

func TestRouterPartitionedBitAgreement(t *testing.T) {
	wantY, x, wantX, wantIters := oracle(t)
	_, _, ts := newCluster(t, 2, nil)

	req := spdSpec("split")
	req.Partition = &PartitionSpec{Parts: 2}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if !info.Partitioned || len(info.Parts) != 2 {
		t.Fatalf("expected 2 row blocks, got %+v", info)
	}
	if info.Parts[0].Shard == info.Parts[1].Shard {
		t.Errorf("both blocks landed on %s; want distinct shards", info.Parts[0].Shard)
	}
	if info.Parts[0].RowLo != 0 || info.Parts[1].RowHi != info.Rows || info.Parts[0].RowHi != info.Parts[1].RowLo {
		t.Errorf("blocks do not tile [0,%d): %+v", info.Rows, info.Parts)
	}

	var sp PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	if len(sp.ServedBy) != 2 {
		t.Errorf("distributed spmv served_by = %v, want both shards", sp.ServedBy)
	}
	if !bitEqual(sp.Y[0], wantY) {
		t.Error("row-partitioned spmv differs from single-shard product")
	}

	var sol SolveResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/solve",
		server.SolveRequest{App: "cg", Tol: 1e-8, MaxIters: 500, IncludeX: true}, &sol); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	// Row-partitioned CG runs the identical iteration at the router: each
	// row still sums on one shard, so the trajectory matches bit-for-bit.
	if !sol.Converged || sol.Iterations != wantIters {
		t.Errorf("distributed CG converged=%v iters=%d, oracle iters=%d", sol.Converged, sol.Iterations, wantIters)
	}
	if !bitEqual(sol.X, wantX) {
		t.Error("distributed solve differs from single-shard solution")
	}
	if sol.Format != "distributed" {
		t.Errorf("solve format = %q, want distributed", sol.Format)
	}
	if sol.Selector.Format != "CSR" {
		t.Errorf("aggregated selector format = %q, want CSR (no predictors)", sol.Selector.Format)
	}

	// The route document aggregates the per-block shard ledgers.
	var got RouteInfo
	if code, body := callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	if len(got.Handles) != 2 {
		t.Errorf("route document carries %d shard handles, want 2", len(got.Handles))
	}
}

// TestDistributedSolveForwardsEachProgressOnce: a router-side BiCGSTAB issues
// two SpMVs per iteration, and each block's selector must still see one
// progress value per iteration, or stage 1 reads a staircase and forecasts
// from twice the iterations the solve ran.
func TestDistributedSolveForwardsEachProgressOnce(t *testing.T) {
	_, _, ts := newCluster(t, 2, nil)
	req := spdSpec("bicgstab")
	req.Partition = &PartitionSpec{Parts: 2}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	seen := func() []int {
		var got RouteInfo
		if code, body := callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+info.ID, nil, &got); code != http.StatusOK {
			t.Fatalf("get: %d %s", code, body)
		}
		if len(got.Handles) != 2 {
			t.Fatalf("route document carries %d shard handles, want 2", len(got.Handles))
		}
		return []int{got.Handles[0].Selector.Iterations, got.Handles[1].Selector.Iterations}
	}
	before := seen()
	var sol SolveResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/solve",
		server.SolveRequest{App: "bicgstab", Tol: 1e-8, MaxIters: 500}, &sol); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	if sol.Iterations < 2 {
		t.Fatalf("solve ran %d iterations; the check needs several", sol.Iterations)
	}
	after := seen()
	for i, n := range after {
		if grew := n - before[i]; grew > sol.Iterations {
			t.Errorf("block %d selector saw %d progress values for a %d-iteration solve", i, grew, sol.Iterations)
		}
	}
	// The solve's own selector document counts the iterations once, as one
	// block's selector saw them, not once per block.
	if sol.Selector.Iterations != after[0] || after[0] != after[1] {
		t.Errorf("solve selector iterations = %d, blocks saw %v", sol.Selector.Iterations, after)
	}
}

func TestRouterFailoverToReplicaOn503(t *testing.T) {
	_, x, _, _ := oracle(t)
	shards, router, ts := newCluster(t, 2, func(cfg *Config) {
		cfg.ReplicateAfter = 1
	})

	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("hot"), &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	// First read crosses the hot threshold and triggers background
	// replication; poll until the replica lands.
	var first PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &first); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	var withReplica RouteInfo
	for {
		callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+info.ID, nil, &withReplica)
		if len(withReplica.Replicas) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never appeared: %+v", withReplica)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if withReplica.Replicas[0].Shard == withReplica.Primary.Shard {
		t.Fatalf("replica landed on the primary shard %s", withReplica.Primary.Shard)
	}

	// Take the primary down with 503s: every read must keep succeeding,
	// served by the replica copy.
	for _, f := range shards {
		if f.ts.URL == withReplica.Primary.Shard {
			f.deny.Store(true)
		}
	}
	for i := 0; i < 3; i++ {
		var sp PanelResponse
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
			server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
			t.Fatalf("spmv with primary down: %d %s", code, body)
		}
		if len(sp.ServedBy) != 1 || sp.ServedBy[0] != withReplica.Replicas[0].Shard {
			t.Errorf("served_by = %v, want replica %s", sp.ServedBy, withReplica.Replicas[0].Shard)
		}
		if !bitEqual(sp.Y[0], first.Y[0]) {
			t.Error("replica answer differs from the pre-failover product")
		}
	}
	if router.Metrics().Replications.Load() != 1 {
		t.Errorf("replications counter = %d, want 1", router.Metrics().Replications.Load())
	}
}

func TestRouterDrainRebalances(t *testing.T) {
	wantY, x, wantX, _ := oracle(t)
	shards, router, ts := newCluster(t, 2, nil)

	var whole RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("whole"), &whole); code != http.StatusCreated {
		t.Fatalf("register whole: %d %s", code, body)
	}
	preq := spdSpec("split")
	preq.Partition = &PartitionSpec{Parts: 2}
	var split RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", preq, &split); code != http.StatusCreated {
		t.Fatalf("register split: %d %s", code, body)
	}

	// Drain the shard holding the whole handle's primary; the partitioned
	// route always has a block there too (one per shard).
	victim := whole.Primary.Shard
	var dr DrainResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/admin/drain", DrainRequest{Shard: victim}, &dr); code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, body)
	}
	if len(dr.Lost) != 0 {
		t.Fatalf("drain lost handles: %v", dr.Lost)
	}
	if dr.Moved != 2 { // the whole handle (no replica to promote) + one block
		t.Errorf("drain moved %d placements, want 2 (promoted %d)", dr.Moved, dr.Promoted)
	}

	var after RouteInfo
	callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+whole.ID, nil, &after)
	if after.Primary.Shard == victim {
		t.Errorf("whole handle still homed on drained shard %s", victim)
	}
	var splitAfter RouteInfo
	callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+split.ID, nil, &splitAfter)
	for _, p := range splitAfter.Parts {
		if p.Shard == victim {
			t.Errorf("block [%d,%d) still homed on drained shard", p.RowLo, p.RowHi)
		}
	}

	// Everything still answers, bit-identically, off the surviving shard.
	var sp PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+whole.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
		t.Fatalf("post-drain spmv: %d %s", code, body)
	}
	if !bitEqual(sp.Y[0], wantY) {
		t.Error("post-drain whole-handle product changed")
	}
	var sol SolveResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+split.ID+"/solve",
		server.SolveRequest{App: "cg", Tol: 1e-8, MaxIters: 500, IncludeX: true}, &sol); code != http.StatusOK {
		t.Fatalf("post-drain solve: %d %s", code, body)
	}
	if !bitEqual(sol.X, wantX) {
		t.Error("post-drain distributed solve changed")
	}
	if router.Metrics().Rebalances.Load() != 2 {
		t.Errorf("rebalances counter = %d, want 2", router.Metrics().Rebalances.Load())
	}

	// Membership reflects the drain, and nothing new lands on the victim.
	var sh ShardsResponse
	callJSON(t, http.MethodGet, ts.URL+"/admin/shards", nil, &sh)
	for _, st := range sh.Shards {
		if st.Shard == victim && !st.Draining {
			t.Errorf("drained shard not marked draining: %+v", st)
		}
	}
	var fresh RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("fresh"), &fresh); code != http.StatusCreated {
		t.Fatalf("post-drain register: %d %s", code, body)
	}
	if fresh.Primary.Shard == victim {
		t.Errorf("new registration landed on drained shard %s", victim)
	}
	_ = shards
}

// TestRouterRefusesOversizedPartitionedSpec: a partitioned registration is
// materialized at the router, so its generate spec is bounded there — by
// what the cluster could hold at ocsd's default capacity, shards × the
// default — and refused with 413 before anything is generated. A stencil
// estimated at 105e6 nonzeros fits no two default shards; the shards stay
// healthy and hold nothing.
func TestRouterRefusesOversizedPartitionedSpec(t *testing.T) {
	_, _, ts := newCluster(t, 2, nil)
	req := RegisterRequest{
		RegisterRequest: server.RegisterRequest{
			Name:     "huge",
			Generate: &server.GenerateSpec{Family: "stencil2d", Size: 21_000_000},
		},
		Partition: &PartitionSpec{Parts: 2},
	}
	code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized partitioned spec: %d %s, want 413", code, body)
	}
	if want := fmt.Sprintf("registry capacity %d", 2*server.DefaultMaxRegistryNNZ); !bytes.Contains(body, []byte(want)) {
		t.Errorf("413 body %s does not name the cluster's capacity (%s)", body, want)
	}
	var sh ShardsResponse
	callJSON(t, http.MethodGet, ts.URL+"/admin/shards", nil, &sh)
	for _, st := range sh.Shards {
		if !st.Healthy || st.Handles != 0 {
			t.Errorf("shard after the refusal: %+v, want healthy with no handles", st)
		}
	}
	var ok RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("after"), &ok); code != http.StatusCreated {
		t.Fatalf("register after the refusal: %d %s", code, body)
	}
}

// TestRouterDuplicateOfMeansSameMatrix: a route's duplicate_of names an
// earlier route over the same matrix, structure AND values, as a shard's
// does; an upload that shares only the sparsity pattern names nothing.
func TestRouterDuplicateOfMeansSameMatrix(t *testing.T) {
	_, _, ts := newCluster(t, 2, nil)
	register := func(name, mtx string) RouteInfo {
		t.Helper()
		var info RouteInfo
		req := RegisterRequest{RegisterRequest: server.RegisterRequest{Name: name, MatrixMarket: mtx}}
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", name, code, body)
		}
		return info
	}
	first := register("first", diagMatrix(1, 2, 3, 4))
	second := register("second", diagMatrix(1, 2, 3, 4))
	other := register("other", diagMatrix(1, 2, 3, 5))
	if first.DuplicateOf != "" {
		t.Errorf("first upload duplicate_of %q, want none", first.DuplicateOf)
	}
	if second.DuplicateOf != first.ID {
		t.Errorf("identical upload duplicate_of %q, want %q", second.DuplicateOf, first.ID)
	}
	if other.Fingerprint != first.Fingerprint {
		t.Fatalf("scenario needs one sparsity pattern: fingerprints %s and %s", first.Fingerprint, other.Fingerprint)
	}
	if other.DuplicateOf != "" {
		t.Errorf("same pattern, different values: duplicate_of %q, want none", other.DuplicateOf)
	}
}

func TestRouterMetricsScrape(t *testing.T) {
	_, x, _, _ := oracle(t)
	_, _, ts := newCluster(t, 2, nil)

	req := spdSpec("metrics")
	req.Partition = &PartitionSpec{Parts: 2}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, nil); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(string(text))
	if err != nil {
		t.Fatalf("router /metrics is not valid Prometheus text: %v", err)
	}
	// The families, name and type in exposition order, are pinned by
	// testdata/router_families.txt, so a family added to or dropped from
	// /metrics shows up as a diff in review.
	byName := map[string]obs.ParsedFamily{}
	var got []string
	for _, f := range fams {
		byName[f.Name] = f
		got = append(got, f.Name+" "+f.Type)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "router_families.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Split(strings.TrimSpace(string(raw)), "\n"); !slices.Equal(got, want) {
		t.Errorf("/metrics families differ from testdata/router_families.txt; got %d:\n%s\nwant %d:\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
	lat, ok := byName["ocsrouter_shard_request_seconds"]
	if !ok || lat.Type != "histogram" {
		t.Fatalf("ocsrouter_shard_request_seconds: ok=%v type=%q, want labeled histogram", ok, lat.Type)
	}
	labeled := map[string]bool{}
	for _, s := range lat.Samples {
		for _, l := range s.Labels {
			if l.Key == "shard" {
				labeled[l.Value] = true
			}
		}
	}
	if len(labeled) != 2 {
		t.Errorf("shard latency histogram covers %d shards, want 2 (%v)", len(labeled), labeled)
	}
}
