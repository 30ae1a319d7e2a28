//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed, at
// random, so allocation ceilings only hold without it.

package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/server"
)

// TestRouterPanelAllocationsIndependentOfLength drives a row-partitioned
// /spmm through the router's handler for a short and a 64x longer operand
// and holds the whole round (router, two real shards, HTTP between them) to
// the same number of allocations and to almost the same number of bytes: the
// router forwards and splices bytes out of pooled buffers and the shards
// decode and encode through pooled vectors, so nothing scales with the
// vector length — except net/http's client, which allocates one 32 KB copy
// buffer per round trip once a body outgrows its 4 KB writer. Any hop that
// held the panel as floats outside the pools would add 8 bytes per entry;
// the parent's encoding/json path allocated about a hundred.
func TestRouterPanelAllocationsIndependentOfLength(t *testing.T) {
	_, router, ts := newCluster(t, 2, nil)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection mid-measurement would empty the pools

	const k = 2
	measure := func(n int) (mallocs, bytesPerOp float64, bodyLen int) {
		a, err := matgen.Generate(matgen.Spec{Family: matgen.FamBanded, Size: n, Degree: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := mmio.Write(&text, a); err != nil {
			t.Fatal(err)
		}
		var info RouteInfo
		reg := RegisterRequest{RegisterRequest: server.RegisterRequest{MatrixMarket: text.String()}, Partition: &PartitionSpec{Parts: 2}}
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", reg, &info); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		body, err := json.Marshal(server.PanelRequest{X: spmmOperand(k, info.Cols)})
		if err != nil {
			t.Fatal(err)
		}
		h := router.Handler()
		round := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/matrices/"+info.ID+"/spmm", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			rec.Body = nil // the reply is checked by the other tests; here it would be the test's own garbage
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("spmm: %d", rec.Code)
			}
		}
		for i := 0; i < 5; i++ {
			round() // warm the pools and the shard connections
		}
		// The quietest of a few batches: sync.Pool keeps one item per P out of
		// other Ps' reach, so now and then a get misses for no reason of ours.
		const batches, rounds = 4, 10
		mallocs, bytesPerOp = math.Inf(1), math.Inf(1)
		for b := 0; b < batches; b++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, float64(after.Mallocs-before.Mallocs)/rounds)
			bytesPerOp = min(bytesPerOp, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		return mallocs, bytesPerOp, len(body)
	}
	smallN, smallB, _ := measure(500)
	largeN, largeB, bodyLen := measure(32_000)
	t.Logf("per partitioned /spmm: %.0f allocations / %.0f B at 500 columns, %.0f / %.0f B at 32 000 (body %d B)", smallN, smallB, largeN, largeB, bodyLen)
	if largeN > smallN*1.25+20 {
		t.Errorf("allocations grow with the vector length: %.0f at 500 columns, %.0f at 32 000", smallN, largeN)
	}
	if entries := float64(k * 32_000); largeB-smallB > 3*entries {
		t.Errorf("%.0f B more per request for %.0f more entries: some hop copies or converts the panel outside the pools", largeB-smallB, entries)
	}
}
