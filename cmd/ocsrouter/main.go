// Command ocsrouter is the cluster routing node: it fronts N ocsd shard
// processes behind the same /v1 JSON API, placing each registered matrix on
// the shard its global ID consistent-hashes to, giving hot whole handles a
// second copy, and row-partitioning large matrices across shards with the
// partial products gathered at the router (see internal/cluster).
//
// Endpoints (client-facing, ocsd-compatible):
//
//	POST   /v1/matrices            register (+ optional {"partition":{"parts":N}})
//	GET    /v1/matrices            list routes + shard membership
//	GET    /v1/matrices/{id}       route document + per-placement shard stats
//	POST   /v1/matrices/{id}/spmv  batched y = A*x (whole or distributed)
//	POST   /v1/matrices/{id}/spmm  blocked Y = A*X over k vectors (whole or distributed)
//	POST   /v1/matrices/{id}/solve solvers; partitioned handles solve at the router
//	DELETE /v1/matrices/{id}       unregister everywhere
//	GET    /v1/trace/{id}          one trace's span tree, router and shard spans joined
//	GET    /healthz                503 when no shard is healthy
//	GET    /metrics                Prometheus text exposition
//	GET    /debug/slow             the slowest routed requests, slowest first
//
// Admin:
//
//	GET    /admin/shards           membership + health
//	POST   /admin/shards           {"shard":"http://host:port"} add a shard
//	POST   /admin/drain            {"shard":"http://host:port"} drain + rebalance
//
// Example:
//
//	ocsd -addr :9001 & ocsd -addr :9002 &
//	ocsrouter -addr :8080 -shards http://localhost:9001,http://localhost:9002
package main

import (
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		shards          = flag.String("shards", "", "comma-separated shard base URLs (required)")
		replicateAfter  = flag.Int64("replicate-after", 256, "spmv vectors before a whole handle gets a second copy (0 disables)")
		partitionMaxNNZ = flag.Int64("partition-max-nnz", 0, "auto-partition matrices above this many nonzeros (0 disables)")
		timeout         = flag.Duration("timeout", 2*time.Minute, "per-shard request timeout")
		probeInterval   = flag.Duration("probe-interval", 2*time.Second, "health probe cadence per shard")
		logJSON         = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		logLevel        = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	logger := obs.NewLogger(*logJSON, *logLevel)
	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	if len(urls) == 0 {
		logger.Error("-shards is required (comma-separated ocsd base URLs)")
		os.Exit(1)
	}
	router, err := cluster.New(cluster.Config{
		Shards:          urls,
		ReplicateAfter:  *replicateAfter,
		PartitionMaxNNZ: *partitionMaxNNZ,
		RequestTimeout:  *timeout,
		ProbeInterval:   *probeInterval,
		Logger:          logger,
	})
	if err != nil {
		logger.Error("building router failed", "error", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("ocsrouter listening", "addr", *addr, "shards", urls)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
	}
	router.Close()
	logger.Info("ocsrouter stopped")
}
