package cluster

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

// spmmOperand builds k deterministic input vectors of the given length.
func spmmOperand(k, n int) [][]float64 {
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, n)
		for j := range xs[i] {
			xs[i][j] = float64((i+1)*(j%13)) - 2.25
		}
	}
	return xs
}

// TestRouterSpMMGatherBitIdentical drives the blocked multi-vector product
// through the router against both a whole placement and a row-partitioned
// one, checking each against a standalone single-process shard bit-for-bit
// (all copies stay CSR, and every output row is summed on exactly one shard,
// so the gather introduces no reassociation).
func TestRouterSpMMGatherBitIdentical(t *testing.T) {
	const k = 4

	// Ground truth from one standalone shard.
	single := newShard(t)
	var ref server.MatrixInfo
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices", spdSpec("oracle").RegisterRequest, &ref); code != http.StatusCreated {
		t.Fatalf("oracle register: %d %s", code, body)
	}
	xs := spmmOperand(k, ref.Cols)
	var want server.PanelResponse
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices/"+ref.ID+"/spmm",
		server.PanelRequest{X: xs}, &want); code != http.StatusOK {
		t.Fatalf("oracle spmm: %d %s", code, body)
	}

	_, router, ts := newCluster(t, 3, nil)

	var whole RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("whole"), &whole); code != http.StatusCreated {
		t.Fatalf("register whole: %d %s", code, body)
	}
	var got PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+whole.ID+"/spmm",
		server.PanelRequest{X: xs}, &got); code != http.StatusOK {
		t.Fatalf("whole spmm: %d %s", code, body)
	}
	if got.K != k || len(got.Y) != k {
		t.Fatalf("whole spmm shape: k=%d vectors=%d, want %d", got.K, len(got.Y), k)
	}
	for i := range got.Y {
		if !bitEqual(got.Y[i], want.Y[i]) {
			t.Fatalf("whole spmm column %d differs from single-process product", i)
		}
	}

	preq := spdSpec("split")
	preq.Partition = &PartitionSpec{Parts: 3}
	var split RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", preq, &split); code != http.StatusCreated {
		t.Fatalf("register split: %d %s", code, body)
	}
	var dist PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+split.ID+"/spmm",
		server.PanelRequest{X: xs}, &dist); code != http.StatusOK {
		t.Fatalf("partitioned spmm: %d %s", code, body)
	}
	if dist.Format != "distributed" || len(dist.ServedBy) != 3 {
		t.Fatalf("partitioned spmm served_by %v format %q", dist.ServedBy, dist.Format)
	}
	for i := range dist.Y {
		if !bitEqual(dist.Y[i], want.Y[i]) {
			t.Fatalf("gathered spmm column %d differs from single-process product", i)
		}
	}
	if router.Metrics().SpMMRequests.Load() != 2 {
		t.Errorf("spmm request counter = %d, want 2", router.Metrics().SpMMRequests.Load())
	}

	// Shape errors stop at the router.
	if code, _ := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+whole.ID+"/spmm",
		server.PanelRequest{X: [][]float64{make([]float64, ref.Cols-1)}}, nil); code != http.StatusBadRequest {
		t.Errorf("ragged operand: status %d, want 400", code)
	}
}

// TestReplicationDedupAliasesOnTarget seeds every shard with the identical
// matrix out-of-band, then makes a routed copy hot: wherever the background
// replication lands, the target's registry must dedup the registration into
// an alias (duplicate_of set) instead of storing a second copy.
func TestReplicationDedupAliasesOnTarget(t *testing.T) {
	shards, router, ts := newCluster(t, 2, func(cfg *Config) {
		cfg.ReplicateAfter = 1
	})
	// Seed the identical matrix directly on each shard (not via the router).
	for _, f := range shards {
		if code, body := callJSON(t, http.MethodPost, f.ts.URL+"/v1/matrices", spdSpec("seeded").RegisterRequest, nil); code != http.StatusCreated {
			t.Fatalf("seed register: %d %s", code, body)
		}
	}

	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("hot"), &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	x := make([]float64, info.Cols)
	for i := range x {
		x[i] = 1
	}
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, nil); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for router.Metrics().Replications.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replication never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := router.Metrics().ReplicaAliases.Load(); got != 1 {
		t.Errorf("replica_aliases = %d, want 1 (target already hosted the matrix)", got)
	}
}
