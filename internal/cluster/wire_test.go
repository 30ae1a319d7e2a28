package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// postRaw posts body as is and returns the status, the raw reply and its
// headers.
func postRaw(t *testing.T, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply, resp.Header
}

// yBytes cuts the text of "y" out of a panel reply.
func yBytes(t *testing.T, reply []byte) []byte {
	t.Helper()
	end := bytes.Index(reply, []byte(`]],"`))
	if !bytes.HasPrefix(reply, []byte(`{"y":[[`)) || end < 0 {
		t.Fatalf("not a panel reply: %.80s", reply)
	}
	return reply[len(`{"y":`) : end+2]
}

// awkwardOperand builds k vectors whose products print across the whole
// range of the number formatter (exponents, long mantissas, negatives).
func awkwardOperand(k, n int) [][]float64 {
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, n)
		for j := range xs[i] {
			xs[i][j] = math.Sin(float64(i*7919+j)) * math.Pow(10, float64((j*7+i)%31-15))
		}
	}
	return xs
}

// TestRouterPanelBytesMatchSingleNode is the byte-level gather identity: the
// router splices the shards' text instead of re-printing floats, and every
// row is summed on exactly one shard, so for the same request bytes the "y"
// of the router's reply — whole handle, 2 row blocks, 3 row blocks — is the
// single node's "y", byte for byte. A decoded comparison would also pass if
// the router re-encoded; this one would not.
func TestRouterPanelBytesMatchSingleNode(t *testing.T) {
	single := newShard(t)
	var ref server.MatrixInfo
	if code, body := callJSON(t, http.MethodPost, single.ts.URL+"/v1/matrices", spdSpec("oracle").RegisterRequest, &ref); code != http.StatusCreated {
		t.Fatalf("oracle register: %d %s", code, body)
	}
	_, _, ts := newCluster(t, 3, nil)
	placements := []struct {
		name  string
		parts int
		id    string
	}{{name: "whole"}, {name: "2 blocks", parts: 2}, {name: "3 blocks", parts: 3}}
	for i, p := range placements {
		req := spdSpec(p.name)
		if p.parts > 0 {
			req.Partition = &PartitionSpec{Parts: p.parts}
		}
		var info RouteInfo
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", p.name, code, body)
		}
		if len(info.Parts) != p.parts {
			t.Fatalf("%s placed as %d parts", p.name, len(info.Parts))
		}
		placements[i].id = info.ID
	}
	progress := 0.25
	for _, op := range []string{"spmv", "spmm"} {
		panel := server.PanelRequest{X: awkwardOperand(3, ref.Cols), Progress: &progress}
		body, err := json.Marshal(panel)
		if err != nil {
			t.Fatal(err)
		}
		code, want, _ := postRaw(t, single.ts.URL+"/v1/matrices/"+ref.ID+"/"+op, body)
		if code != http.StatusOK {
			t.Fatalf("single-node %s: %d %s", op, code, want)
		}
		for _, p := range placements {
			name := p.name
			code, got, _ := postRaw(t, ts.URL+"/v1/matrices/"+p.id+"/"+op, body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", name, op, code, got)
			}
			if !bytes.Equal(yBytes(t, got), yBytes(t, want)) {
				t.Errorf("%s %s: y bytes differ from the single node's", name, op)
			}
			var resp PanelResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatalf("%s %s: reply is not JSON: %v", name, op, err)
			}
			wantK := 0
			if op == "spmm" {
				wantK = 3
			}
			if resp.K != wantK || len(resp.ServedBy) != max(1, p.parts) {
				t.Errorf("%s %s: k=%d served_by=%v", name, op, resp.K, resp.ServedBy)
			}
			// The whole reply is what encoding/json prints for it: field
			// names, order and number text are unchanged on the wire.
			var again bytes.Buffer
			if err := json.NewEncoder(&again).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, again.Bytes()) {
				t.Errorf("%s %s: reply is not encoding/json's text for the same response", name, op)
			}
		}
	}
}

// TestRoundTripReturnsBodyWhenTransportIsDone: a shard that answers before
// it has read the request leaves the transport's write loop sending the body
// after the response is in. roundTrip must not return — its callers pool the
// body or build the reply over it — until that loop has let go. The scribble
// below is a data race under -race (make race runs this package) if it does.
func TestRoundTripReturnsBodyWhenTransportIsDone(t *testing.T) {
	hasty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		const msg = `{"error":"no such matrix"}`
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(msg)))
		w.WriteHeader(http.StatusNotFound)
		_, _ = io.WriteString(w, msg)
		_ = rc.Flush()
		time.Sleep(50 * time.Millisecond) // the client has its answer; most of its body is still unsent
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	t.Cleanup(hasty.Close)
	sc, err := NewShardClient(hasty.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<20) // 16 MB: far more than the socket buffers hold
	for range 3 {
		_, err := sc.roundTrip(context.Background(), http.MethodPost, "/v1/matrices/m1/spmm", body)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Fatalf("round trip: %v, want the shard's 404", err)
		}
		for i := range body {
			body[i] = 'x'
		}
	}
}

// TestNonFiniteProductLeavesShardsHealthy: an overflowing product is the
// shard's 422 passed through — not the empty 200 the router used to read as
// io.EOF, "shard unreachable", health bit off, failover onto replicas that
// fail the same way.
func TestNonFiniteProductLeavesShardsHealthy(t *testing.T) {
	_, router, ts := newCluster(t, 2, func(cfg *Config) {
		cfg.ReplicateAfter = 1
	})
	huge := make([]float64, 400)
	for i := range huge {
		huge[i] = 1e308
	}
	for _, parts := range []int{0, 2} {
		req := spdSpec(fmt.Sprintf("overflow-%d", parts))
		if parts > 0 {
			req.Partition = &PartitionSpec{Parts: parts}
		}
		var info RouteInfo
		if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		for _, op := range []string{"/spmv", "/spmm"} {
			code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+op, server.PanelRequest{X: [][]float64{huge}}, nil)
			if code != http.StatusUnprocessableEntity || !bytes.Contains(body, []byte("product is not finite (y[0][")) {
				t.Errorf("parts=%d %s: %d %s, want the shard's 422", parts, op, code, body)
			}
		}
	}
	if n := router.Metrics().Failovers.Load(); n != 0 {
		t.Errorf("failovers = %d, want 0: a 422 is the client's answer, not a reason to try a replica", n)
	}
	for _, st := range router.shardStatuses() {
		if !st.Healthy {
			t.Errorf("shard %s marked unhealthy by a client's overflowing request", st.Shard)
		}
	}
}

// TestMalformedShardReplyIsBadGatewayNotUnhealthy: a shard that answers 200
// with a body cut short did answer — the request is a 502, the process is
// not unreachable, and its health bit stays on.
func TestMalformedShardReplyIsBadGatewayNotUnhealthy(t *testing.T) {
	real := server.New(server.Config{Logger: quietLogger()})
	var mangle atomic.Bool
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mangle.Load() && (strings.HasSuffix(r.URL.Path, "/spmv") || strings.HasSuffix(r.URL.Path, "/spmm")) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"y":[[1,2`)
			return
		}
		real.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(shard.Close)
	router, err := New(Config{Shards: []string{shard.URL}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)

	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", spdSpec("mangled"), &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	x := make([]float64, info.Cols)
	mangle.Store(true)
	for _, op := range []string{"/spmv", "/spmm"} {
		code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+op, server.PanelRequest{X: [][]float64{x}}, nil)
		if code != http.StatusBadGateway || !bytes.Contains(body, []byte("malformed shard reply")) {
			t.Errorf("%s: %d %s, want 502 malformed shard reply", op, code, body)
		}
	}
	sc := router.shardList()[0]
	if !sc.Healthy() {
		t.Error("a shard that answered (badly) was marked unreachable")
	}
	mangle.Store(false)
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices/"+info.ID+"/spmv", server.PanelRequest{X: [][]float64{x}}, nil); code != http.StatusOK {
		t.Errorf("after the shard recovered: %d %s", code, body)
	}
}

// TestRouterWireSpans: the router's share of a panel request shows up as
// wire.scan and wire.splice under its request span, next to the rpc spans.
func TestRouterWireSpans(t *testing.T) {
	_, router, ts := newCluster(t, 2, nil)
	req := spdSpec("traced")
	req.Partition = &PartitionSpec{Parts: 2}
	var info RouteInfo
	if code, body := callJSON(t, http.MethodPost, ts.URL+"/v1/matrices", req, &info); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	body, _ := json.Marshal(server.PanelRequest{X: spmmOperand(2, info.Cols)})
	code, reply, hdr := postRaw(t, ts.URL+"/v1/matrices/"+info.ID+"/spmm", body)
	if code != http.StatusOK {
		t.Fatalf("spmm: %d %s", code, reply)
	}
	sc, ok := obs.ParseTraceHeader(hdr.Get(obs.TraceHeader))
	if !ok {
		t.Fatal("no trace header")
	}
	counts := map[string]int{}
	for _, sp := range router.env.Tracer.Spans(sc.Trace) {
		counts[sp.Name]++
		switch sp.Name {
		case "wire.scan":
			if sp.Parent != sc.Span || sp.Attrs["bytes"] != fmt.Sprint(len(body)) || sp.Attrs["vectors"] != "2" {
				t.Errorf("wire.scan: parent %v attrs %v", sp.Parent, sp.Attrs)
			}
		case "wire.splice":
			if sp.Parent != sc.Span || sp.Attrs["bytes"] != fmt.Sprint(len(reply)) || sp.Attrs["vectors"] != "2" {
				t.Errorf("wire.splice: parent %v attrs %v", sp.Parent, sp.Attrs)
			}
		}
	}
	if counts["wire.scan"] != 1 || counts["wire.splice"] != 1 || counts["rpc.spmm"] != 2 {
		t.Errorf("router spans %v, want one wire.scan, one wire.splice, two rpc.spmm", counts)
	}
}
