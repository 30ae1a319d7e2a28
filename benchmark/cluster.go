package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/server"
)

// clusterPartitioned is a router over two in-process shards serving one
// row-partitioned handle to one closed-loop client. The fan-out already
// occupies both cores, so a second client would only measure queueing.
func (b *bench) clusterPartitioned() (*outcome, error) {
	out := b.newOutcome("cluster_partitioned")
	setup := time.Now()
	// 78k rows, 391k nnz. The issue asked for a 700-edge grid (490k rows),
	// but one mix round of that takes 22 s here and the run-time cap leaves
	// 12: this size serves five rounds, every cost per vector element is the
	// same, and BENCHMARK.json says the workload is wire-bound by design. Not
	// smaller, so that /spmm (p50 ~320 ms) sits clear of its 250 ms objective
	// and not on it, where slo_ok_share would flip with the weather.
	edge := max(int(280*math.Sqrt(b.cfg.scale)), 30)
	a, err := matgen.Stencil2D(edge)
	if err != nil {
		return nil, err
	}
	out.WorkingSetBytes = a.Bytes()
	var (
		urls []string
		srvs []*server.Server
	)
	for i := 0; i < 2; i++ {
		srv, node, err := b.bootOCSD(server.Config{})
		if err != nil {
			return nil, err
		}
		defer node.stop()
		urls, srvs = append(urls, node.url), append(srvs, srv)
	}
	// The budget that makes this matrix two row blocks.
	router, err := cluster.New(cluster.Config{Shards: urls, PartitionMaxNNZ: int64(a.NNZ())*5/6 + 1, Logger: quietLogger})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	front, err := serveLoopback(router.Handler())
	if err != nil {
		return nil, err
	}
	defer front.stop()
	cl := b.newClient(1)
	defer cl.close()

	reg := server.RegisterRequest{Name: "grid", Generate: &server.GenerateSpec{Family: "stencil2d", Size: edge * edge}}
	var info cluster.RouteInfo
	regReply, err := cl.postJSON(front.url+"/v1/matrices", reg, &info)
	if err != nil {
		return nil, err
	}
	if !info.Partitioned || len(info.Parts) != 2 {
		return nil, fmt.Errorf("router placed the handle as %d parts (partitioned=%v), want 2 row blocks", len(info.Parts), info.Partitioned)
	}
	if info.Fingerprint != a.Fingerprint() {
		return nil, fmt.Errorf("router registered a different matrix than the local reference copy")
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	base := front.url + "/v1/matrices/" + info.ID
	spmv, err := newVecCase(a, rng, 1)
	if err != nil {
		return nil, err
	}
	spmv2, err := newVecCase(a, rng, 1)
	if err != nil {
		return nil, err
	}
	spmm, err := newVecCase(a, rng, 4)
	if err != nil {
		return nil, err
	}
	// max_iters makes the solve fixed work: 25 CG iterations fan out 25
	// distributed SpMVs, and converged:false with HTTP 200 is the right reply.
	solveBody, err := json.Marshal(server.SolveRequest{App: "cg", MaxIters: 25})
	if err != nil {
		return nil, err
	}
	solve := &op{kind: opSolve, method: http.MethodPost, url: fixedURL(base + "/solve"),
		body: solveBody, always: true, verify: verifySolve(false)}
	// Mix 8 /spmv : 2 /spmm : 1 /solve, order drawn by the seed.
	ops := make([]*op, 0, 220)
	for len(ops) < cap(ops) {
		round := []*op{solve, spmm.op(opSpMM, base+"/spmm"), spmm.op(opSpMM, base+"/spmm")}
		for i := 0; i < 8; i++ {
			v := spmv
			if i%2 == 1 {
				v = spmv2
			}
			round = append(round, v.op(opSpMV, base+"/spmv"))
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		ops = append(ops, round...)
	}
	warm := b.newOutcome("warm-up")
	for i, o := range []*op{spmv.op(opSpMV, base+"/spmv"), spmm.op(opSpMM, base+"/spmm"), solve} {
		if s := cl.exec(o, i*checkEvery, time.Time{}, warm); !s.ok {
			return nil, fmt.Errorf("warm-up request failed: %v", warm.Failures)
		}
	}
	setupS := b.endSetup(setup)

	p := cl.closedLoop(1, b.timed(1), ops, out)
	b.setServing(out, p, setupS, 75)
	if !b.cfg.traced {
		return out, nil
	}

	// The same matrix whole on one shard, asked directly: what the router,
	// the re-encode per block and the gather add on top of a single node.
	var whole server.MatrixInfo
	if _, err := cl.postJSON(urls[0]+"/v1/matrices", server.RegisterRequest{Name: "whole", Generate: reg.Generate}, &whole); err != nil {
		return nil, err
	}
	direct := urls[0] + "/v1/matrices/" + whole.ID
	single := b.newOutcome("single-node")
	var oneSpMV, oneSpMM []float64
	for i := 0; i < 6; i++ {
		if s := cl.exec(spmv.op(opSpMV, direct+"/spmv"), i, time.Time{}, single); s.ok {
			oneSpMV = append(oneSpMV, s.ms)
		}
		if s := cl.exec(spmm.op(opSpMM, direct+"/spmm"), i, time.Time{}, single); s.ok {
			oneSpMM = append(oneSpMM, s.ms)
		}
	}
	out.Attempted += 12
	out.Failed += single.Failed
	out.Failures = append(out.Failures, single.Failures...)
	l := out.layers
	l.set("cluster.route_overhead_ms.spmv", median(p.latencies(opSpMV))-median(oneSpMV))
	l.set("cluster.route_overhead_ms.spmm", median(p.latencies(opSpMM))-median(oneSpMM))
	out.Detail["single_node_spmv_p50_ms"] = median(oneSpMV)
	out.Detail["single_node_spmm_p50_ms"] = median(oneSpMM)
	l.set("cluster.parts", float64(len(info.Parts)))
	l.set("cluster.register_ms", float64(regReply.end.Sub(regReply.start))/1e6)
	rm := router.Metrics()
	l.set("cluster.failovers", float64(rm.Failovers.Load()))
	vals, _, err := cl.scrape(front.url)
	if err != nil {
		return nil, err
	}
	if n := vals["ocsrouter_cluster_shard_request_seconds_count"]; n > 0 {
		l.set("cluster.shard_rpc_ms", 1e3*vals["ocsrouter_cluster_shard_request_seconds_sum"]/n)
	}
	for _, srv := range srvs {
		m := srv.Metrics()
		l.add("core.conversions", float64(m.Conversions.Load()))
		l.add("core.stage2_runs", float64(m.Conversions.Load()+m.ConversionsAvoided.Load()))
		l.add("server.shed_total", float64(m.QueueRejected.Load()))
	}
	return out, nil
}
