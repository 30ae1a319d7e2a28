package server

import (
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// These tests pin the service's error paths: malformed uploads must surface
// the parser's file:line diagnosis through the HTTP boundary, oversized
// matrices must be refused outright, and LRU eviction racing a solve on the
// victim handle must leave both sides consistent.

func TestRegisterMalformedUploadSurfacesFileLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		reqName  string
		body     string
		wantFrag string
	}{
		{
			// Banner (1), size (2), good entry (3), truncated entry (4):
			// the error must blame bad.mtx line 4, not just "bad entry".
			name:     "truncated-entry",
			reqName:  "bad.mtx",
			body:     "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n2 2\n",
			wantFrag: "mmio: bad.mtx:4:",
		},
		{
			name:     "bad-banner",
			reqName:  "bad.mtx",
			body:     "%%MatrixMonket matrix coordinate real general\n1 1 0\n",
			wantFrag: "mmio: bad.mtx:1:",
		},
		{
			name:     "entry-out-of-range",
			reqName:  "bad.mtx",
			body:     "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
			wantFrag: "mmio: bad.mtx:3:",
		},
		{
			// No name given: the parser attributes errors to "upload".
			name:     "anonymous-upload",
			reqName:  "",
			body:     "%%MatrixMarket matrix coordinate real general\n2 2 1\nnope\n",
			wantFrag: "mmio: upload:3:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := call(t, "POST", ts.URL+"/v1/matrices",
				RegisterRequest{Name: tc.reqName, MatrixMarket: tc.body}, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", code, body)
			}
			if !strings.Contains(string(body), "parsing matrix:") {
				t.Errorf("body %s missing the handler's context", body)
			}
			if !strings.Contains(string(body), tc.wantFrag) {
				t.Errorf("body %s does not carry the file:line diagnosis %q", body, tc.wantFrag)
			}
		})
	}
}

func TestRegisterOversizedMatrixRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRegistryNNZ: 1000, Selector: testSelector()})
	code, body := call(t, "POST", ts.URL+"/v1/matrices", RegisterRequest{
		Name:     "too-big",
		Generate: &GenerateSpec{Family: "banded", Size: 600, Degree: 5, Seed: 1},
	}, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", code, body)
	}
	if !strings.Contains(string(body), "registry capacity") {
		t.Errorf("body %s does not explain the capacity limit", body)
	}
	// The refused matrix must leave no trace: nothing registered, nothing
	// evicted to make room for a matrix that can never fit.
	var list ListResponse
	if code, _ := call(t, "GET", ts.URL+"/v1/matrices", nil, &list); code != http.StatusOK {
		t.Fatalf("list failed: %d", code)
	}
	if len(list.Matrices) != 0 || list.RegistryNNZ != 0 {
		t.Errorf("registry not empty after rejection: %+v", list)
	}
	if got := s.Metrics().Evictions.Load(); got != 0 {
		t.Errorf("%d evictions recorded for a rejected register", got)
	}
}

// TestGenerateSpecPastCapacityRefusedBeforeGenerating: a generate spec is
// priced by its estimated nonzeros before anything is built, so a spec no
// registry of this capacity could hold costs a 413, not the allocation. (A
// 3e9-row spec used to end the process with an unrecoverable out-of-memory
// fatal error inside the generator.) 200 000 uniform rows of 8 would
// allocate about 50 MB before the registry said no.
func TestGenerateSpecPastCapacityRefusedBeforeGenerating(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRegistryNNZ: 10_000, Selector: testSelector()})
	req := RegisterRequest{Name: "huge", Generate: &GenerateSpec{Family: "uniform", Size: 200_000, Degree: 8}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, body := call(t, "POST", ts.URL+"/v1/matrices", req, nil)
	runtime.ReadMemStats(&after)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "registry capacity") {
		t.Fatalf("status %d body %s, want 413 naming the registry capacity", code, body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("the refused spec allocated %d bytes, want under 1 MB", alloc)
	}
	if got := s.Metrics().Evictions.Load(); got != 0 {
		t.Errorf("%d evictions for a refused spec", got)
	}
}

func TestEvictionUnderConcurrentSolve(t *testing.T) {
	// Capacity fits exactly one of the matrices below, so every successful
	// registration evicts the previous handle while solves may still be
	// running against it.
	s, ts := newTestServer(t, Config{MaxRegistryNNZ: 10_000, Selector: testSelector()})
	spec := &GenerateSpec{Family: "stencil2d", Size: 1600, Seed: 3} // 40x40 grid, ~7.8k nnz
	first := register(t, ts.URL, RegisterRequest{Name: "victim", Generate: spec})

	// Hammer the victim with solves while replacement registrations evict
	// it. A solve that grabbed the handle before eviction must finish with
	// 200 (the handle stays functional off-registry); one that arrives
	// after must get a clean 404 — nothing else.
	var wg sync.WaitGroup
	codes := make([]int, 8)
	bodies := make([][]byte, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = call(t, "POST", ts.URL+"/v1/matrices/"+first.ID+"/solve",
				SolveRequest{App: "jacobi", MaxIters: 400, Tol: 1e-30}, nil)
		}(i)
	}
	var evicted []string
	for r := 0; r < 3; r++ {
		var info MatrixInfo
		// Distinct grid sizes per usurper: registering the same matrix again
		// would dedup-alias the resident copy (zero nnz charged) and never
		// apply eviction pressure.
		uspec := &GenerateSpec{Family: "stencil2d", Size: []int{1681, 1764, 1849}[r]}
		code, body := call(t, "POST", ts.URL+"/v1/matrices",
			RegisterRequest{Name: "usurper", Generate: uspec}, &info)
		if code != http.StatusCreated {
			t.Fatalf("replacement register %d: status %d body %s", r, code, body)
		}
		evicted = append(evicted, info.Evicted...)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK && code != http.StatusNotFound {
			t.Errorf("solve %d: status %d body %s", i, code, bodies[i])
		}
	}
	found := false
	for _, id := range evicted {
		if id == first.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim %s never reported evicted (evicted: %v)", first.ID, evicted)
	}
	if got := s.Metrics().Evictions.Load(); got < 1 {
		t.Errorf("eviction metric %d, want >= 1", got)
	}
	// The evicted handle is gone for new requests, with the hinting message.
	code, body := call(t, "GET", ts.URL+"/v1/matrices/"+first.ID, nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET evicted: status %d body %s", code, body)
	}
	if !strings.Contains(string(body), "may have been evicted") {
		t.Errorf("404 body %s does not hint at eviction", body)
	}
}
