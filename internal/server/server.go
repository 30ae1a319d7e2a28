// Package server implements ocsd, the long-running SpMV service that makes
// the paper's overhead-conscious cost model concrete: matrices are
// registered once, live across many requests, and each handle runs the
// two-stage lazy-and-light selector so the one-time conversion cost
// amortizes over every SpMV and solve any client sends its way — exactly
// the T_affected = T_predict + T_convert + Σ T_spmv·N accounting of §III.
//
// The subsystem is four pieces:
//
//   - Registry: upload/generate a matrix → opaque handle, LRU-bounded by
//     total nnz with eviction stats;
//   - Handle: one core.Adaptive per matrix, safe for concurrent use, so the
//     selector state is shared across concurrent requests;
//   - Pool: an admission layer capping concurrent compute at the machine's
//     worker count with a bounded queue (overload sheds as 503s);
//   - HTTP/JSON API: register, stats, batched spmv, solve (CG, PCG,
//     BiCGSTAB, GMRES, Jacobi, power method, PageRank), delete, plus
//     /healthz, /metrics (Prometheus text), /buildinfo, /v1/trace/{id} +
//     /debug/decisions for the selector's decision journal, and an opt-in
//     net/http/pprof mux.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/convcache"
	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// Config sizes the server. Zero values get production-ready defaults.
type Config struct {
	// MaxRegistryNNZ bounds the registry's total stored nonzeros
	// (default 50e6, roughly 800 MB of CSR arrays).
	MaxRegistryNNZ int64
	// Workers caps concurrent SpMV/solve jobs (default parallel.Workers()).
	Workers int
	// QueueDepth bounds jobs waiting for a worker slot (default 4x
	// Workers; negative means no queue — overload rejects immediately).
	QueueDepth int
	// DefaultSolveTimeout applies when a solve request names none
	// (default 60s).
	DefaultSolveTimeout time.Duration
	// ConvCacheNNZ bounds the cross-handle conversion cache's total stored
	// nonzeros (default half of MaxRegistryNNZ; negative disables the
	// cache). Converted operators published here are adopted by later
	// handles over the same matrix with zero residual conversion cost.
	ConvCacheNNZ int64
	// Preds is the trained stage-2 predictor bundle; nil runs stage 1 only
	// (matrices then never convert, but tripcount stats still accumulate).
	Preds *core.Predictors
	// Selector overrides the selector configuration; nil uses
	// core.DefaultConfig().
	Selector *core.Config
	// Async is ignored: every handle runs stage 2 inline, inside the
	// request whose progress report opens the gate. The field remains only
	// because benchmark/ compiles against it and leaves with that module's
	// next change (ROADMAP 10(d)).
	Async bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints expose internals (heap contents,
	// command line) that do not belong on an unauthenticated service port.
	EnablePprof bool
	// Logger receives the server's structured logs; nil uses slog.Default().
	Logger *slog.Logger
	// SLOs are the per-endpoint latency objectives the slow-request Warn
	// line is checked against; nil uses DefaultSLOs().
	SLOs []obs.Objective
}

// defaultTol is the selector tolerance of a handle registered without one.
const defaultTol = 1e-8

// errTooLarge is Materialize's refusal of a generate spec bigger than its
// bound, which handleRegister answers with 413.
var errTooLarge = errors.New("matrix exceeds the registry capacity")

// DefaultSLOs are the serving objectives applied when Config.SLOs is nil:
// interactive endpoints get tight targets, solves get room to iterate.
func DefaultSLOs() []obs.Objective {
	return []obs.Objective{
		{Endpoint: "register", LatencyTarget: 2},
		{Endpoint: "spmv", LatencyTarget: 0.25},
		{Endpoint: "spmm", LatencyTarget: 0.25},
		{Endpoint: "solve", LatencyTarget: 5},
	}
}

func (c Config) withDefaults() Config {
	if c.MaxRegistryNNZ <= 0 {
		c.MaxRegistryNNZ = 50_000_000
	}
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultSolveTimeout <= 0 {
		c.DefaultSolveTimeout = 60 * time.Second
	}
	if c.ConvCacheNNZ == 0 {
		c.ConvCacheNNZ = c.MaxRegistryNNZ / 2
	}
	return c
}

// Server is the ocsd service: registry + pool + metrics + HTTP handlers.
type Server struct {
	cfg     Config
	reg     *Registry
	pool    *Pool
	metrics *Metrics
	journal *obs.Journal
	mux     *http.ServeMux
	// env is the request envelope shared with the router: the logger, the
	// span store holding this shard's spans per trace, the objective table
	// and the /debug/slow ring.
	env Envelope
	// convCache is the cross-handle conversion cache every handle's
	// selector consults and publishes into; nil when disabled.
	convCache *convcache.Cache

	// drainMu guards the graceful-shutdown state: once draining is set new
	// /v1 requests are refused, and idle is closed when the last in-flight
	// request finishes.
	drainMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	m := NewMetrics()
	slos := cfg.SLOs
	if slos == nil {
		slos = DefaultSLOs()
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg.MaxRegistryNNZ, m),
		pool:    NewPool(cfg.Workers, cfg.QueueDepth),
		metrics: m,
		journal: obs.NewJournal(obs.DefaultJournalCapacity),
		mux:     http.NewServeMux(),
		env: Envelope{
			Log:      logger,
			Tracer:   obs.NewTracer("ocsd", 0),
			SLOs:     slos,
			Slow:     obs.NewSlowTraces(0),
			Requests: &m.RequestsTotal,
			Errors:   &m.RequestErrors,
		},
		idle: make(chan struct{}),
	}
	if cfg.ConvCacheNNZ > 0 {
		s.convCache = convcache.New(cfg.ConvCacheNNZ)
	}
	// Warm the process-wide worker team every kernel dispatches through, so
	// the first request never pays worker spawn latency. The admission pool
	// caps concurrent jobs above it: one parked team plus a bounded job count
	// means no goroutine explosion however many clients hammer /v1.
	parallel.Default()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /buildinfo", s.handleBuildInfo)
	s.mux.HandleFunc("GET /debug/decisions", s.handleDecisions)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	s.mux.HandleFunc("GET /v1/spans/{trace}", s.handleSpans)
	s.mux.Handle("POST /v1/matrices", s.track("register", s.handleRegister))
	s.mux.Handle("GET /v1/matrices", s.track("list", s.handleList))
	s.mux.Handle("GET /v1/matrices/{id}", s.track("get", s.handleGet))
	s.mux.Handle("GET /v1/matrices/{id}/export", s.track("export", s.handleExport))
	s.mux.Handle("DELETE /v1/matrices/{id}", s.track("delete", s.handleDelete))
	s.mux.Handle("POST /v1/matrices/{id}/spmv", s.track("spmv", s.handlePanel(opSpMV)))
	s.mux.Handle("POST /v1/matrices/{id}/spmm", s.track("spmm", s.handlePanel(opSpMM)))
	s.mux.Handle("POST /v1/matrices/{id}/solve", s.track("solve", s.handleSolve))
	s.mux.Handle("GET /v1/trace/{id}", s.track("trace", s.handleTrace))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof endpoints enabled", "path", "/debug/pprof/")
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counter set (primarily for tests and the daemon).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Journal exposes the decision journal (primarily for tests and the daemon).
func (s *Server) Journal() *obs.Journal { return s.journal }

// Registry exposes the matrix registry (primarily for tests and the daemon).
func (s *Server) Registry() *Registry { return s.reg }

// Tracer exposes the span store (primarily for tests and the router).
func (s *Server) Tracer() *obs.Tracer { return s.env.Tracer }

// track wraps a /v1 handler with the shared request envelope behind the
// drain gate: once Drain has been called, new work is refused with 503 while
// in-flight requests run to completion.
func (s *Server) track(endpoint string, h http.HandlerFunc) http.Handler {
	tracked := s.env.Track(endpoint, h)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.drainMu.Lock()
		if s.draining {
			s.drainMu.Unlock()
			s.env.Fail(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.inflight++
		s.drainMu.Unlock()
		s.metrics.InFlight.Add(1)
		defer func() {
			s.metrics.InFlight.Add(-1)
			s.drainMu.Lock()
			s.inflight--
			if s.draining && s.inflight == 0 {
				close(s.idle)
			}
			s.drainMu.Unlock()
		}()
		tracked.ServeHTTP(w, r)
	})
}

// Drain stops admitting new /v1 requests and waits until every in-flight
// request (including long solves) has completed, or ctx expires. It is the
// graceful-shutdown half the HTTP listener cannot provide on its own: call
// Drain first, then http.Server.Shutdown to close idle connections.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		if s.inflight == 0 {
			close(s.idle)
		}
	}
	ch := s.idle
	s.drainMu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Handle, bool) {
	id := r.PathValue("id")
	h, ok := s.reg.Get(id)
	if !ok {
		s.env.Fail(w, http.StatusNotFound, "no matrix %q (it may have been evicted)", id)
		return nil, false
	}
	return h, true
}

func (s *Server) info(h *Handle) MatrixInfo {
	spmv, solve := h.Usage()
	traceID, _ := h.SA.TraceID()
	return MatrixInfo{
		TraceID:     traceID,
		ID:          h.ID,
		Name:        h.Name,
		Rows:        h.Rows,
		Cols:        h.Cols,
		NNZ:         h.NNZ,
		Tol:         h.Tol,
		Transition:  h.Dangling != nil,
		CreatedAt:   h.Created,
		SpMVCalls:   spmv,
		SolveCalls:  solve,
		Selector:    selectorStats(h.SA.Stats()),
		Fingerprint: h.Fingerprint,
		ValueDigest: h.ValueDigest,
		DuplicateOf: h.AliasOf,
	}
}

// ---- endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	if draining {
		s.env.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.env.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	extra := []obs.Family{
		obs.ScalarFamily("ocsd_decision_traces", "Decision traces currently held in the journal.", obs.KindGauge, float64(s.journal.Len())),
	}
	if s.convCache != nil {
		cs := s.convCache.Snapshot()
		extra = append(extra,
			obs.ScalarFamily("ocsd_convcache_hits_total", "Conversions adopted from the cross-handle cache.", obs.KindCounter, float64(cs.Hits)),
			obs.ScalarFamily("ocsd_convcache_misses_total", "Cache lookups that found no published conversion.", obs.KindCounter, float64(cs.Misses)),
			obs.ScalarFamily("ocsd_convcache_publishes_total", "Conversions published into the cross-handle cache.", obs.KindCounter, float64(cs.Publishes)),
			obs.ScalarFamily("ocsd_convcache_evictions_total", "Cached conversions evicted under the nnz budget.", obs.KindCounter, float64(cs.Evictions)),
			obs.ScalarFamily("ocsd_convcache_entries", "Conversions currently cached.", obs.KindGauge, float64(cs.Entries)),
			obs.ScalarFamily("ocsd_convcache_nnz", "Total nonzeros held by the conversion cache.", obs.KindGauge, float64(cs.NNZ)),
		)
	}
	_ = obs.WriteText(w, s.metrics.Families(extra...))
}

// handleBuildInfo reports how this binary was built — module version, VCS
// revision, Go version — plus the parallelism it sees, so a scraped fleet
// can be audited for version skew.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	info := BuildInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.ModulePath = bi.Main.Path
		info.ModuleVersion = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.VCSRevision = kv.Value
			case "vcs.time":
				info.VCSTime = kv.Value
			case "vcs.modified":
				info.VCSModified = kv.Value == "true"
			}
		}
	}
	s.env.WriteJSON(w, http.StatusOK, info)
}

// handleDecisions dumps the journal's recent traces (newest first) as JSON.
// ?n= bounds the count; default all held.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.env.Fail(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		n = v
	}
	traces := s.journal.Recent(n)
	s.env.WriteJSON(w, http.StatusOK, DecisionsResponse{Count: len(traces), Traces: traces})
}

// handleSpans dumps this shard's local spans for one trace ID. A trace the
// shard never saw (or already evicted) yields an empty list, not a 404 —
// the router fans this call out to every shard and most see only a subset
// of any given trace.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	trace, err := obs.ParseTraceID(r.PathValue("trace"))
	if err != nil {
		s.env.Fail(w, http.StatusBadRequest, "bad trace id: %v", err)
		return
	}
	spans := s.env.Tracer.Spans(trace)
	s.env.WriteJSON(w, http.StatusOK, SpansResponse{Trace: trace.String(), Count: len(spans), Spans: spans})
}

// handleSlow serves the ring of slowest request traces, slowest first.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	s.env.WriteJSON(w, http.StatusOK, SlowResponse{Slowest: s.env.Slow.List()})
}

// handleTrace resolves a matrix handle to its decision trace. 404 separates
// "no such matrix" from "pipeline has not run yet" (409) and "trace evicted
// from the journal" (410), so clients can tell waiting from gone.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	id, ok := h.SA.TraceID()
	if !ok {
		s.env.Fail(w, http.StatusConflict, "matrix %s: selector pipeline has not run yet", h.ID)
		return
	}
	tr, ok := s.journal.Get(id)
	if !ok {
		s.env.Fail(w, http.StatusGone, "matrix %s: trace %d evicted from the journal", h.ID, id)
		return
	}
	s.env.WriteJSON(w, http.StatusOK, tr)
}

// Materialize builds the CSR (and, for PageRank handles, the dangling-node
// flags) a registration describes: matrix_market text or a generate spec,
// optionally turned into the transition operator (as_transition) or paired
// with precomputed flags (dangling). ocsd registers the result; the router
// calls it when it must see the matrix to partition it, so partitioned
// placement accepts, rejects and builds exactly what a single shard would.
// A generate spec whose matgen.EstimateNNZ exceeds maxNNZ is refused before
// anything is generated (maxNNZ <= 0 sets no bound): one spec cannot make
// the process allocate more than the registry could ever hold. Every error
// is the client's: 413 for that refusal, 400 for the rest.
func Materialize(req RegisterRequest, maxNNZ int64) (csr *sparse.CSR, dangling []bool, err error) {
	switch {
	case req.MatrixMarket != "" && req.Generate != nil:
		return nil, nil, errors.New("matrix_market and generate are mutually exclusive")
	case req.MatrixMarket != "":
		name := req.Name
		if name == "" {
			name = "upload"
		}
		csr, err = mmio.ReadNamed(strings.NewReader(req.MatrixMarket), name)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing matrix: %w", err)
		}
	case req.Generate != nil:
		g := req.Generate
		fi := slices.IndexFunc(matgen.AllFamilies, func(f matgen.Family) bool {
			return f.String() == strings.ToLower(g.Family)
		})
		if fi < 0 {
			return nil, nil, fmt.Errorf("generate: unknown family %q", g.Family)
		}
		spec := matgen.Spec{Name: req.Name, Family: matgen.AllFamilies[fi], Size: g.Size, Degree: g.Degree, Seed: g.Seed}
		if est := matgen.EstimateNNZ(spec); maxNNZ > 0 && est > maxNNZ {
			return nil, nil, fmt.Errorf("generate: %w: an estimated %d nonzeros, registry capacity %d", errTooLarge, est, maxNNZ)
		}
		csr, err = matgen.Generate(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("generate: %w", err)
		}
	default:
		return nil, nil, errors.New("one of matrix_market or generate is required")
	}
	switch {
	case req.AsTransition && req.Dangling != nil:
		return nil, nil, errors.New("as_transition and dangling are mutually exclusive")
	case req.AsTransition:
		csr, dangling, err = apps.BuildTransition(csr)
		if err != nil {
			return nil, nil, fmt.Errorf("building transition matrix: %w", err)
		}
	case req.Dangling != nil:
		// The matrix text is an already-built transition operator (a peer
		// shard's export); install the flags verbatim instead of re-deriving.
		if req.MatrixMarket == "" {
			return nil, nil, errors.New("dangling requires matrix_market")
		}
		if rows, _ := csr.Dims(); len(req.Dangling) != rows {
			return nil, nil, fmt.Errorf("dangling has %d flags, matrix has %d rows", len(req.Dangling), rows)
		}
		dangling = req.Dangling
	}
	return csr, dangling, nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.env.Decode(w, r, &req) {
		return
	}
	csr, dangling, err := Materialize(req, s.cfg.MaxRegistryNNZ)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.env.Fail(w, code, "%v", err)
		return
	}

	tol := req.Tol
	if tol <= 0 {
		tol = defaultTol
	}
	// Dedup: an identical resident matrix (same structure AND values) lends
	// its CSR arrays to the new handle, so the duplicate aliases one backing
	// copy instead of storing a second. The registry charges it zero nnz.
	fp, vd := csr.Fingerprint(), csr.ValueDigest()
	if dup, ok := s.reg.FindDuplicate(fp, vd); ok {
		csr = dup.CSR()
	}
	selCfg := core.DefaultConfig()
	if s.cfg.Selector != nil {
		selCfg = *s.cfg.Selector
	}
	// Every handle's selector writes into the shared journal; the label
	// carries the caller-facing name (the handle ID is not assigned yet —
	// /v1/trace/{id} resolves ID → trace through the handle instead).
	selCfg.Journal = s.journal
	if selCfg.TraceLabel == "" {
		selCfg.TraceLabel = req.Name
	}
	// Selector stage spans (stage1/features/decide/convert) land in
	// the shard's span store, parented under whatever request span was
	// current when the pipeline fired (see SetSpanParent in handlePanel/handleSolve).
	selCfg.SpanSink = s.env.Tracer.Record
	// Wire the conversion cache: any conversion this handle's pipeline pays
	// for is published under the matrix identity, and a conversion already
	// published by an earlier tenant is adopted with zero residual
	// T_convert — the selector sees cached formats as free to reach.
	if s.convCache != nil {
		selCfg.ConvCache = s.convCache
		selCfg.CacheFingerprint = fp
		selCfg.CacheValues = vd
	}
	ad := core.NewAdaptive(csr, tol, s.cfg.Preds, selCfg, true)
	rows, cols := csr.Dims()
	h := &Handle{
		Name:        req.Name,
		Rows:        rows,
		Cols:        cols,
		NNZ:         csr.NNZ(),
		Tol:         tol,
		Created:     time.Now(),
		Fingerprint: fp,
		ValueDigest: vd,
		SA:          ad,
		csr:         csr,
		Dangling:    dangling,
	}
	evicted, err := s.reg.Add(h)
	if err != nil {
		s.env.Fail(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	s.env.ReqLog(w).Info("matrix registered",
		"id", h.ID, "name", h.Name, "rows", h.Rows, "cols", h.Cols,
		"nnz", h.NNZ, "evicted", len(evicted))
	info := s.info(h)
	info.Evicted = evicted
	s.env.WriteJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	hs := s.reg.List()
	resp := ListResponse{Matrices: make([]MatrixInfo, 0, len(hs))}
	for _, h := range hs {
		resp.Matrices = append(resp.Matrices, s.info(h))
	}
	resp.RegistryNNZ, resp.CapacityNNZ = s.reg.Occupancy()
	s.env.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.env.WriteJSON(w, http.StatusOK, s.info(h))
}

// handleExport serializes a handle for a peer shard: the CSR master copy as
// Matrix Market text (full precision, so values survive the round trip
// bit-exact) plus the registration attributes a re-register needs. The
// cluster router calls this to replicate hot handles onto other shards and
// to re-home handles when a shard drains.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var sb strings.Builder
	if err := mmio.Write(&sb, h.CSR()); err != nil {
		s.env.Fail(w, http.StatusInternalServerError, "serializing matrix: %v", err)
		return
	}
	s.env.WriteJSON(w, http.StatusOK, ExportResponse{
		ID:           h.ID,
		Name:         h.Name,
		Tol:          h.Tol,
		Transition:   h.Dangling != nil,
		Dangling:     h.Dangling,
		Fingerprint:  h.Fingerprint,
		MatrixMarket: sb.String(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Delete(id) {
		s.env.Fail(w, http.StatusNotFound, "no matrix %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// panelOp is what distinguishes /spmv from /spmm inside the one panel
// handler: the endpoint's name, the compute span's width attribute, and
// whether the k columns go through one fused SpMM pass or k SpMV calls.
type panelOp struct {
	name      string // endpoint; the compute span is name+".compute"
	widthAttr string
	blocked   bool
}

var (
	opSpMV = panelOp{name: "spmv", widthAttr: "vectors"}
	opSpMM = panelOp{name: "spmm", widthAttr: "k", blocked: true}
)

// format is the format the op's products run on, for the reply, the compute
// span and the per-format call counter: the handle's current one for SpMV
// calls, always the CSR master for the blocked pass. A request reads it once,
// after its products, so the three agree.
func (op panelOp) format(h *Handle) sparse.Format {
	if op.blocked {
		return sparse.FmtCSR
	}
	return h.SA.Format()
}

// panel is one product's pooled operands: decode fills the k input vectors
// from a scanned request body, compute runs inside the pool slot, result
// returns the k product vectors as wire.AppendReply takes them (vector i is
// ys[i][0], ys[i][stride], …), and release hands the buffers back once the
// reply has been encoded.
type panel struct {
	decode  func(body []byte, lay wire.Layout) error
	compute func() error
	result  func() (ys [][]float64, stride int)
	release func()
}

// columnPanel multiplies the k vectors one SpMV call at a time, out of and
// into pooled vectors; the product vectors back the response slices.
func (h *Handle) columnPanel(ctx context.Context, k int) panel {
	xs, ys := make([][]float64, k), make([][]float64, k)
	bufs := make([]*[]float64, 0, 2*k)
	for i := range xs {
		x, y := wire.GetVec(h.Cols), wire.GetVec(h.Rows)
		xs[i], ys[i] = *x, *y
		bufs = append(bufs, x, y)
	}
	return panel{
		decode: func(body []byte, lay wire.Layout) error {
			for i, sp := range lay.Vectors {
				if err := wire.DecodeVector(body[sp.Lo:sp.Hi], xs[i], 1); err != nil {
					return fmt.Errorf("x[%d]: %w", i, err)
				}
			}
			return nil
		},
		compute: func() error {
			for i, x := range xs {
				if err := ctx.Err(); err != nil {
					return err
				}
				h.SA.SpMV(ys[i], x)
			}
			return nil
		},
		result: func() ([][]float64, int) { return ys, 1 },
		release: func() {
			for _, b := range bufs {
				wire.PutVec(b)
			}
		},
	}
}

// blockedPanel holds the k vectors as one row-major panel (row j holds
// column j of every input vector, so the blocked kernel reads one contiguous
// k-wide stripe per nonzero) and multiplies it in a single SpMM pass: the
// matrix is traversed once for all k columns instead of k times. The request is decoded
// straight into the operand panel and the reply encoded straight out of the
// product panel, column i striding by k from offset i.
func (h *Handle) blockedPanel(k int) panel {
	xbuf, ybuf := wire.GetVec(h.Cols*k), wire.GetVec(h.Rows*k)
	xp, yp := *xbuf, *ybuf
	return panel{
		decode: func(body []byte, lay wire.Layout) error {
			for i, sp := range lay.Vectors {
				if err := wire.DecodeVector(body[sp.Lo:sp.Hi], xp[i:], k); err != nil {
					return fmt.Errorf("x[%d]: %w", i, err)
				}
			}
			return nil
		},
		compute: func() error {
			h.SA.SpMM(yp, xp, k)
			return nil
		},
		result: func() ([][]float64, int) {
			ys := make([][]float64, k)
			for i := range ys {
				ys[i] = yp[i:]
			}
			return ys, k
		},
		release: func() {
			wire.PutVec(xbuf)
			wire.PutVec(ybuf)
		},
	}
}

// handlePanel serves /spmv and /spmm: a batch of k x-vectors multiplied by
// the handle's matrix, as k SpMV calls or one blocked SpMM pass (op). The
// body is read into one pooled buffer, scanned, decoded into the product's
// pooled operands, and — its bytes dead by then — overwritten with the
// encoded reply. Decode and encode run outside the admission-pool slot, and
// the request waits for the handle's mutex inside SpMV and RecordProgress
// only: /spmm never does.
func (s *Server) handlePanel(op panelOp) http.HandlerFunc {
	hist, requests, columns := s.metrics.SpMVSeconds, &s.metrics.SpMVRequests, &s.metrics.SpMVVectors
	if op.blocked {
		hist, requests, columns = s.metrics.SpMMSeconds, &s.metrics.SpMMRequests, &s.metrics.SpMMColumns
	}
	return func(w http.ResponseWriter, r *http.Request) {
		h, ok := s.lookup(w, r)
		if !ok {
			return
		}
		sc, traced := obs.SpanFromContext(r.Context())
		decodeStart := time.Now()
		buf, lay, k, ok := s.env.ReadPanel(w, r, h.Cols)
		if !ok {
			return
		}
		defer func() { wire.PutBuf(buf) }() // the reply may move to another buffer
		var p panel
		if op.blocked {
			p = h.blockedPanel(k)
		} else {
			p = h.columnPanel(r.Context(), k)
		}
		defer p.release()
		progress, err := lay.Progress(*buf)
		if err == nil {
			err = p.decode(*buf, lay)
		}
		if err != nil {
			s.env.Fail(w, http.StatusBadRequest, "decoding request body: %v", err)
			return
		}
		s.env.WireSpan(sc, "wire.decode", decodeStart, len(*buf), k)

		if traced {
			h.SA.SetSpanParent(sc)
		}
		var format sparse.Format
		waitStart := time.Now()
		err = s.pool.Do(r.Context(), func() error {
			waited := time.Since(waitStart).Seconds()
			s.metrics.QueueWaitSeconds.Observe(waited)
			s.env.RecordSpan(sc, "queue.wait", waitStart, waited)
			// A router-driven block product forwards the solve loop's progress
			// indicator so the shard-side selector pipeline advances: without
			// it a shard that only ever sees gather fan-out would never open
			// its lazy gate.
			if progress != nil {
				h.SA.RecordProgress(*progress)
			}
			computeStart := time.Now()
			defer func() {
				secs := time.Since(computeStart).Seconds()
				format = op.format(h)
				hist.Observe(secs)
				s.env.RecordSpan(sc, op.name+".compute", computeStart, secs,
					[2]string{"format", format.String()},
					[2]string{op.widthAttr, strconv.Itoa(k)})
			}()
			return p.compute()
		})
		if err != nil {
			s.failWork(w, err)
			return
		}
		requests.Add(1)
		columns.Add(int64(k))
		s.metrics.CountSpMV(format, int64(k))
		h.countUse(s.metrics, int64(k), 0)

		encodeStart := time.Now()
		tail := wire.Tail{Format: format.String()}
		if op.blocked {
			tail.K = k
		}
		ys, stride := p.result()
		buf = wire.Recycle(buf, k*h.Rows*wire.MaxFloatLen+64)
		if *buf, err = wire.AppendReply(*buf, ys, stride, tail); err != nil {
			// JSON has no NaN or ±Inf: the product overflowed.
			var nf *wire.NonFiniteError
			if errors.As(err, &nf) {
				err = fmt.Errorf("product is not finite (y[%d][%d])", nf.Vector, nf.Index)
			}
			s.env.Fail(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		s.env.WireSpan(sc, "wire.encode", encodeStart, len(*buf), k)
		s.env.WriteBody(w, http.StatusOK, *buf)
	}
}

// failWork answers a pool/solver error with its WorkStatus.
func (s *Server) failWork(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.QueueRejected.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Timeouts.Add(1)
	}
	s.env.Fail(w, WorkStatus(err), "%v", err)
}

// RunSolve runs one solve request against op — ocsd's per-handle selector
// wrapper, or the router's distributed operator over a partitioned handle —
// so both tiers build the same options, default the same right-hand side and
// dispatch the same seven apps. id names the matrix in error messages; diag
// supplies the matrix diagonal (fetched only by pcg and jacobi); dangling
// holds the PageRank dangling-node flags, nil unless the matrix was
// registered as a transition operator; hook receives each iteration's
// progress indicator. eig is set by the power method only. Map a returned
// error to its HTTP status with WorkStatus.
func RunSolve(ctx context.Context, op apps.Operator, id string, req SolveRequest, diag func() []float64, dangling []bool, hook apps.Hook) (res apps.Result, eig *float64, err error) {
	opt := apps.DefaultSolveOptions()
	opt.Ctx = ctx
	if req.Tol > 0 {
		opt.Tol = req.Tol
	}
	if req.MaxIters > 0 {
		opt.MaxIters = req.MaxIters
	}
	if req.Restart > 0 {
		opt.Restart = req.Restart
	}
	b := req.B
	rows, _ := op.Dims()
	switch {
	case req.App == "pagerank" || req.App == "power":
		// These iterate on the operator alone; b is ignored.
	case b == nil:
		bp := wire.GetVec(rows)
		defer wire.PutVec(bp) // solvers allocate their own x; nothing returned aliases b
		b = *bp
		for i := range b {
			b[i] = 1
		}
	case len(b) != rows:
		return res, nil, badRequest(fmt.Sprintf("b has length %d, matrix has %d rows", len(b), rows))
	}
	switch req.App {
	case "cg":
		res, err = apps.CG(op, b, opt, hook)
	case "pcg":
		var pre apps.Preconditioner
		if pre, err = apps.NewJacobiPreconditioner(diag()); err == nil {
			res, err = apps.PCG(op, pre, b, opt, hook)
		}
	case "bicgstab":
		res, err = apps.BiCGSTAB(op, b, opt, hook)
	case "gmres":
		res, err = apps.GMRES(op, b, opt, hook)
	case "jacobi":
		res, err = apps.Jacobi(op, diag(), b, 2.0/3.0, opt, hook)
	case "power":
		var pr apps.PowerResult
		pr, err = apps.PowerMethod(op, opt, hook)
		res, eig = pr.Result, &pr.Eigenvalue
	case "pagerank":
		if dangling == nil {
			return res, nil, fmt.Errorf("matrix %s was not registered with as_transition", id)
		}
		propt := apps.DefaultPageRankOptions()
		propt.Ctx = ctx
		if req.Tol > 0 {
			propt.Tol = req.Tol
		}
		if req.MaxIters > 0 {
			propt.MaxIters = req.MaxIters
		}
		if req.Damping > 0 {
			propt.Damping = req.Damping
		}
		res, err = apps.PageRank(op, dangling, propt, hook)
	default:
		err = fmt.Errorf("unknown app %q (want cg, pcg, bicgstab, gmres, jacobi, power or pagerank)", req.App)
	}
	return res, eig, err
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req SolveRequest
	if !s.env.Decode(w, r, &req) {
		return
	}
	timeout := s.cfg.DefaultSolveTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	hook := func(_ int, p float64) { h.SA.RecordProgress(p) }
	sc, traced := obs.SpanFromContext(r.Context())
	if traced {
		h.SA.SetSpanParent(sc)
	}

	var (
		res       apps.Result
		eig       *float64
		format    sparse.Format
		start     = time.Now()
		waitStart = time.Now()
	)
	err := s.pool.Do(ctx, func() (err error) {
		waited := time.Since(waitStart).Seconds()
		s.metrics.QueueWaitSeconds.Observe(waited)
		s.env.RecordSpan(sc, "queue.wait", waitStart, waited)
		computeStart := time.Now()
		defer func() {
			secs := time.Since(computeStart).Seconds()
			format = h.SA.Format()
			s.metrics.SolveSeconds.Observe(secs)
			s.env.RecordSpan(sc, "solve.compute", computeStart, secs,
				[2]string{"app", req.App},
				[2]string{"format", format.String()})
		}()
		res, eig, err = RunSolve(ctx, h.SA, h.ID, req, h.Diag, h.Dangling, hook)
		return err
	})
	if err != nil {
		s.failWork(w, err)
		return
	}
	s.metrics.SolveRequests.Add(1)
	s.metrics.SolveIters.Add(int64(res.Iterations))
	s.metrics.SolveSpMVs.Add(int64(res.SpMVs))
	// Attribute the solver's exact SpMV count (not an iterations-based
	// approximation: BiCGSTAB issues two per iteration, restarted GMRES one
	// per Arnoldi step plus one per restart).
	s.metrics.CountSpMV(format, int64(res.SpMVs))
	h.countUse(s.metrics, int64(res.SpMVs), 1)
	resp := SolveResponse{
		App:            req.App,
		Iterations:     res.Iterations,
		SpMVCalls:      res.SpMVs,
		Converged:      res.Converged,
		Residual:       res.Residual,
		Format:         format.String(),
		DurationMillis: float64(time.Since(start).Microseconds()) / 1000,
		Selector:       selectorStats(h.SA.Stats()),
		Eigenvalue:     eig,
	}
	if req.IncludeX {
		resp.X = res.X
	}
	s.env.WriteJSON(w, http.StatusOK, resp)
}
