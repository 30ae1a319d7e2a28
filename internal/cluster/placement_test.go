package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// waitReplica polls the route document until the handle has one replica.
func waitReplica(t *testing.T, url string) RouteInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var info RouteInfo
		callJSON(t, http.MethodGet, url, nil, &info)
		if len(info.Replicas) == 1 {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never appeared: %+v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterDrainPromotesHealthyReplica drains the shard holding a whole
// handle's primary while a healthy replica exists elsewhere: the replica is
// promoted, no data moves, and reads stay bit-identical.
func TestRouterDrainPromotesHealthyReplica(t *testing.T) {
	wantY, x, _, _ := oracle(t)
	_, router, ts := newCluster(t, 2, func(cfg *Config) { cfg.ReplicateAfter = 1 })

	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("hot"), &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, nil); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	before := waitReplica(t, ts.URL+"/v1/matrices/"+info.ID)
	victim, survivor := before.Primary.Shard, before.Replicas[0].Shard

	var dr DrainResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/admin/drain", DrainRequest{Shard: victim}, &dr); code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, body)
	}
	if dr.Promoted != 1 || dr.Moved != 0 || len(dr.Lost) != 0 {
		t.Errorf("drain = %+v, want promoted 1, moved 0, nothing lost", dr)
	}
	if n := router.Metrics().Rebalances.Load(); n != 0 {
		t.Errorf("rebalances = %d, want 0: a promotion moves no data", n)
	}
	var after RouteInfo
	callJSON(t, http.MethodGet, ts.URL+"/v1/matrices/"+info.ID, nil, &after)
	if after.Primary == nil || after.Primary.Shard != survivor || len(after.Replicas) != 0 {
		t.Errorf("after drain primary %+v replicas %+v, want the old replica on %s alone", after.Primary, after.Replicas, survivor)
	}
	var sp PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
		t.Fatalf("post-drain spmv: %d %s", code, body)
	}
	if len(sp.ServedBy) != 1 || sp.ServedBy[0] != survivor {
		t.Errorf("served_by = %v, want the promoted copy on %s", sp.ServedBy, survivor)
	}
	if !bitEqual(sp.Y[0], wantY) {
		t.Error("product off the promoted copy differs from the single-shard product")
	}
}

// TestPartitionedRegisterFailsOverPastA503: a row block whose first-choice
// shard answers 503 is placed on the next ring successor, like a whole
// handle, instead of failing the registration.
func TestPartitionedRegisterFailsOverPastA503(t *testing.T) {
	wantY, x, _, _ := oracle(t)
	shards, router, ts := newCluster(t, 2, nil)
	router.mu.Lock()
	first := router.ring.Lookup("g1") // block 0's first choice
	router.mu.Unlock()
	other := ""
	for _, f := range shards {
		if f.ts.URL == first {
			f.deny.Store(true)
		} else {
			other = f.ts.URL
		}
	}

	req := spdSpec("split")
	req.Partition = &PartitionSpec{Parts: 2}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
		t.Fatalf("register with %s refusing: %d %s", first, code, body)
	}
	if info.ID != "g1" || !info.Partitioned || len(info.Parts) != 2 {
		t.Fatalf("placement %+v, want g1 in 2 row blocks", info)
	}
	for _, p := range info.Parts {
		if p.Shard != other {
			t.Errorf("block [%d,%d) on %s, want %s", p.RowLo, p.RowHi, p.Shard, other)
		}
	}
	if n := router.Metrics().Failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	var sp PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{x}}, &sp); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	if !bitEqual(sp.Y[0], wantY) {
		t.Error("product of the failed-over blocks differs from the single-shard product")
	}
}

// TestPartitionRequestCuttingOneBlockIsWhole pins what a partition request
// does when the matrix cuts into one row block (here a single row): the
// handle is a whole handle — the client's registration forwarded
// unchanged, a primary and no parts, products in the shard's own format.
func TestPartitionRequestCuttingOneBlockIsWhole(t *testing.T) {
	_, router, ts := newCluster(t, 2, nil)
	reg := RegisterRequest{
		RegisterRequest: server.RegisterRequest{
			Name:         "one-row",
			MatrixMarket: "%%MatrixMarket matrix coordinate real general\n1 3 2\n1 1 2.5\n1 3 -1\n",
		},
		Partition: &PartitionSpec{Parts: 2},
	}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", reg, &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if info.Partitioned || info.Primary == nil || len(info.Parts) != 0 {
		t.Fatalf("one-block cut placed as %+v, want a whole handle", info)
	}
	if len(info.Handles) != 1 || info.Handles[0].Name != "one-row" {
		t.Errorf("shard documents %+v, want the client's registration under its own name", info.Handles)
	}
	if n := router.Metrics().PartitionedRegs.Load(); n != 0 {
		t.Errorf("partitioned registrations = %d, want 0", n)
	}
	var sp PanelResponse
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
		server.PanelRequest{X: [][]float64{{1, 2, 4}}}, &sp); code != http.StatusOK {
		t.Fatalf("spmv: %d %s", code, body)
	}
	if !bitEqual(sp.Y[0], []float64{2.5 - 4}) || sp.Format != "CSR" || len(sp.ServedBy) != 1 || sp.ServedBy[0] != info.Primary.Shard {
		t.Errorf("spmv = %+v, want y [-1.5] in CSR from %s", sp, info.Primary.Shard)
	}
}

// gatedShard is a real ocsd whose next registration, once armed, stops at
// a gate: arrived closes when it gets there, and it goes on to the shard
// when release closes.
type gatedShard struct {
	ts               *httptest.Server
	armed            atomic.Bool
	arrived, release chan struct{}
	once             sync.Once
}

func newGatedShard(t *testing.T) *gatedShard {
	t.Helper()
	s := server.New(server.Config{Logger: quietLogger()})
	g := &gatedShard{arrived: make(chan struct{}), release: make(chan struct{})}
	g.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/matrices" && g.armed.CompareAndSwap(true, false) {
			close(g.arrived)
			<-g.release
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		g.open() // a test that failed early must not leave Close waiting on the gate
		g.ts.Close()
	})
	return g
}

// open lets the gated registration through.
func (g *gatedShard) open() { g.once.Do(func() { close(g.release) }) }

// TestDeleteRacingACopyLeavesNoCopyBehind deletes a handle while a new copy
// of it — a replica, or a drain's re-homed copy — is being registered on
// another shard. The copy lands after the delete has listed the handle's
// placements, so the router itself must delete it: the target shard ends
// up hosting nothing.
func TestDeleteRacingACopyLeavesNoCopyBehind(t *testing.T) {
	for _, how := range []string{"replication", "drain"} {
		t.Run(how, func(t *testing.T) {
			shards := []*gatedShard{newGatedShard(t), newGatedShard(t)}
			router, err := New(Config{
				Shards:         []string{shards[0].ts.URL, shards[1].ts.URL},
				ReplicateAfter: 1,
				RequestTimeout: 10 * time.Second, // bounds a gated round trip if the test fails early
				ProbeInterval:  time.Hour,
				Logger:         quietLogger(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(router.Close)
			ts := httptest.NewServer(router.Handler())
			t.Cleanup(ts.Close)

			var info RouteInfo
			if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("doomed"), &info); code != http.StatusCreated {
				t.Fatalf("register: %d %s", code, body)
			}
			target := shards[0]
			if target.ts.URL == info.Primary.Shard {
				target = shards[1]
			}
			target.armed.Store(true)

			copied := make(chan int, 1) // the drain's status; replication reports nothing
			switch how {
			case "replication":
				x := make([]float64, info.Cols)
				if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv",
					server.PanelRequest{X: [][]float64{x}}, nil); code != http.StatusOK {
					t.Fatalf("spmv: %d %s", code, body)
				}
			case "drain":
				blob, _ := json.Marshal(DrainRequest{Shard: info.Primary.Shard})
				go func() {
					resp, err := http.Post(ts.URL+"/admin/drain", "application/json", bytes.NewReader(blob))
					if err != nil {
						copied <- 0
						return
					}
					resp.Body.Close()
					copied <- resp.StatusCode
				}()
			}
			select {
			case <-target.arrived:
			case <-time.After(10 * time.Second):
				t.Fatalf("no %s registration reached %s", how, target.ts.URL)
			}
			if code, body := callJSON(t, http.MethodDelete, ts.URL+"/v1/matrices/"+info.ID, nil, nil); code != http.StatusNoContent {
				t.Fatalf("delete: %d %s", code, body)
			}
			target.open()
			if how == "drain" {
				if code := <-copied; code != http.StatusOK {
					t.Fatalf("drain answered %d", code)
				}
			}
			router.Close() // waits for the replication goroutine

			var list server.ListResponse
			if code, body := callJSON(t, http.MethodGet, target.ts.URL+"/v1/matrices", nil, &list); code != http.StatusOK {
				t.Fatalf("list: %d %s", code, body)
			}
			if len(list.Matrices) != 0 {
				names := make([]string, len(list.Matrices))
				for i, m := range list.Matrices {
					names[i] = fmt.Sprintf("%s (%s)", m.ID, m.Name)
				}
				t.Errorf("%s left %v on %s after the handle was deleted", how, names, target.ts.URL)
			}
		})
	}
}
