// Command ocsd is the overhead-conscious SpMV daemon: a long-running HTTP
// service that owns a registry of sparse matrices and runs the two-stage
// format selector per matrix handle, so conversion costs amortize across
// every request a handle serves (see internal/server).
//
// Endpoints:
//
//	POST   /v1/matrices           register a matrix (.mtx text or generator spec)
//	GET    /v1/matrices           list handles
//	GET    /v1/matrices/{id}      stats: format, selector decisions, overhead seconds
//	POST   /v1/matrices/{id}/spmv batched y = A*x
//	POST   /v1/matrices/{id}/spmm blocked Y = A*X (k dense vectors, one matrix pass)
//	POST   /v1/matrices/{id}/solve CG/PCG/BiCGSTAB/GMRES/Jacobi/power/PageRank
//	GET    /v1/trace/{id}         the handle's decision trace + live T_affected ledger
//	DELETE /v1/matrices/{id}      unregister
//	GET    /healthz               liveness (503 while draining)
//	GET    /metrics               Prometheus text exposition
//	GET    /buildinfo             module version, VCS revision, Go version, GOMAXPROCS
//	GET    /debug/decisions       recent decision traces as JSON (?n= bounds the count)
//	GET    /debug/pprof/          net/http/pprof (only with -pprof)
//
// Run with trained predictors for real format selection:
//
//	ocsd -models models           # saved by `ocsel train -out models`
//	ocsd -train                   # train at startup on the measured menu (seconds)
//
// Without predictors only stage 1 (tripcount prediction) runs and matrices
// never convert — useful for functional testing. The bundle is fixed for
// the life of the process; to change it, re-run `ocsel train` and restart
// (DESIGN.md §14).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/server"

	ocs "repro"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		modelsDir    = flag.String("models", "", "directory of trained predictors (see ocsel train)")
		train        = flag.Bool("train", false, "train default predictors at startup")
		seed         = flag.Int64("seed", 42, "training corpus seed (with -train)")
		maxNNZ       = flag.Int64("max-nnz", 50_000_000, "registry capacity in total stored nonzeros")
		convCacheNNZ = flag.Int64("conv-cache-nnz", 0, "cross-handle conversion cache capacity in stored nonzeros (0 = half of -max-nnz, negative = disabled)")
		workers      = flag.Int("workers", parallel.Workers(), "max concurrent SpMV/solve jobs")
		queue        = flag.Int("queue", 0, "admission queue depth (0 = 4x workers, negative = none)")
		solveTimeout = flag.Duration("timeout", 60*time.Second, "default solve timeout")
		drainWait    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		async        = flag.Bool("async", true, "run stage-2 selection (features, prediction, conversion) on a background worker instead of stalling the triggering request")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logJSON      = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	logger := newLogger(*logJSON, *logLevel)

	var preds *core.Predictors
	switch {
	case *modelsDir != "" && *train:
		logger.Error("-models and -train are mutually exclusive")
		os.Exit(1)
	case *modelsDir != "":
		p, err := ocs.LoadPredictors(*modelsDir)
		if err != nil {
			logger.Error("loading predictors failed", "dir", *modelsDir, "error", err)
			os.Exit(1)
		}
		preds = p
	case *train:
		logger.Info("training default predictors on this machine's kernels...", "seed", *seed)
		p, err := ocs.TrainDefaultPredictors(*seed)
		if err != nil {
			logger.Error("training predictors failed", "error", err)
			os.Exit(1)
		}
		preds = p
	default:
		logger.Info("no predictors (-models/-train): stage 2 disabled, matrices stay on CSR")
	}
	if preds != nil {
		if err := preds.Validate(); err != nil {
			logger.Warn("predictor bundle malformed: a format missing one of its two models is never selected", "error", err)
		}
		// The menu this daemon selects among, in its own output.
		logger.Info("predictors ready", "formats", fmt.Sprint(preds.Formats()))
	}
	srv := server.New(server.Config{
		MaxRegistryNNZ:      *maxNNZ,
		ConvCacheNNZ:        *convCacheNNZ,
		Workers:             *workers,
		QueueDepth:          *queue,
		DefaultSolveTimeout: *solveTimeout,
		Preds:               preds,
		Async:               *async,
		EnablePprof:         *enablePprof,
		Logger:              logger,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("ocsd listening", "addr", *addr, "workers", *workers, "registry_nnz", *maxNNZ, "pprof", *enablePprof)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info("draining in-flight work", "signal", sig.String(), "budget", drainWait.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Warn("drain incomplete", "error", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown error", "error", err)
	}
	logger.Info("ocsd stopped")
}

// newLogger builds the process logger from the -log-json/-log-level flags.
func newLogger(asJSON bool, level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h)
}
