package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// remoteRecords benchmarks a running service — a single ocsd or an
// ocsrouter fronting a cluster — over its HTTP API instead of the
// in-process kernels: per-family end-to-end spmv round-trip latency plus
// one timed solve per family. The service's own format selection runs as
// usual, so the numbers include whatever conversion the traffic earns; the
// solve record's paid/hidden fields carry the service-side selector ledger.
func remoteRecords(target string, size, degree int, seed int64, minTime time.Duration, workers int) ([]Record, error) {
	sc, err := cluster.NewShardClient(target, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := sc.Probe(ctx); err != nil {
		return nil, fmt.Errorf("target %s unreachable: %w", target, err)
	}
	var recs []Record
	for _, fam := range []string{"banded", "random", "powerlaw", "block"} {
		info, err := sc.Register(ctx, server.RegisterRequest{
			Name:     "ocsbench-" + fam,
			Generate: &server.GenerateSpec{Family: fam, Size: size, Degree: degree, Seed: seed},
		})
		if err != nil {
			return nil, fmt.Errorf("registering %s on %s: %w", fam, target, err)
		}
		x := make([]float64, info.Cols)
		for i := range x {
			x[i] = 1
		}
		req := server.PanelRequest{X: [][]float64{x}}
		var spmvErr error
		ns, iters := measure(minTime, func() {
			if _, err := sc.Panel(ctx, "spmv", info.ID, req); err != nil && spmvErr == nil {
				spmvErr = err
			}
		})
		if spmvErr != nil {
			return nil, fmt.Errorf("spmv %s: %w", fam, spmvErr)
		}
		recs = append(recs, Record{
			Kind: "remote", Matrix: fam, Variant: "spmv",
			NNZ: info.NNZ, Workers: workers, NsPerOp: ns, Iters: iters,
		})

		// GMRES, not CG: the bench families are general square matrices, and
		// restarted GMRES neither assumes SPD nor hits breakdown on them
		// (convergence is not required — the record times the round trip).
		start := time.Now()
		sres, err := sc.Solve(ctx, info.ID, server.SolveRequest{App: "gmres", MaxIters: 100})
		if err != nil {
			return nil, fmt.Errorf("solve %s: %w", fam, err)
		}
		recs = append(recs, Record{
			Kind: "remote", Matrix: fam, Variant: "solve-gmres", Format: sres.Selector.Format,
			NNZ: info.NNZ, Workers: workers,
			NsPerOp:     float64(time.Since(start).Nanoseconds()),
			Iters:       1,
			PaidSeconds: sres.Selector.PaidSeconds, HiddenSeconds: sres.Selector.HiddenSeconds,
		})
		if err := sc.Delete(ctx, info.ID); err != nil {
			return nil, fmt.Errorf("cleanup %s: %w", fam, err)
		}
	}
	return recs, nil
}
