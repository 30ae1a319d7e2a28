package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// Config sizes the router. Zero values get production-ready defaults.
type Config struct {
	// Shards lists the initial shard base URLs (scheme://host:port).
	Shards []string
	// VNodes is the virtual-node count per shard on the hash ring
	// (default 64).
	VNodes int
	// ReplicationFactor is the target number of copies for a hot whole
	// handle, primary included (default 2).
	ReplicationFactor int
	// ReplicateAfter is the spmv-vector count past which a whole handle is
	// considered hot and replicated toward ReplicationFactor; 0 disables
	// replication.
	ReplicateAfter int64
	// PartitionMaxNNZ auto-partitions matrices with more nonzeros than this
	// into row blocks of at most roughly this many nnz each; 0 disables
	// auto-partitioning (explicit partition requests still work).
	PartitionMaxNNZ int64
	// RequestTimeout bounds each shard round trip (default 2 min).
	RequestTimeout time.Duration
	// ProbeInterval is the health-check cadence per shard (default 2s);
	// consecutive failures back the cadence off exponentially.
	ProbeInterval time.Duration
	// MaxBodyBytes bounds request bodies (default 64 MB).
	MaxBodyBytes int64
	// Logger receives structured logs; nil uses slog.Default().
	Logger *slog.Logger
	// SlowTraceCount sizes the /debug/slow ring (default 32).
	SlowTraceCount int
	// TraceCapacity bounds how many recent traces the router's span store
	// retains (default obs.DefaultTraceCapacity).
	TraceCapacity int
}

// routerSLOs are the router-level objectives. They are looser than the
// shard-side targets: they budget the shard round trips on top.
func routerSLOs() []obs.Objective {
	return []obs.Objective{
		{Endpoint: "register", LatencyTarget: 5},
		{Endpoint: "spmv", LatencyTarget: 0.5},
		{Endpoint: "spmm", LatencyTarget: 1},
		{Endpoint: "solve", LatencyTarget: 10},
	}
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// shardRef is one hosted copy of a whole handle.
type shardRef struct {
	shard    *ShardClient
	remoteID string
}

// partRef is one hosted row block of a partitioned handle.
type partRef struct {
	lo, hi   int
	shard    *ShardClient
	remoteID string
}

// route is the router's record of one global handle: identity, geometry,
// and where its copies or blocks live. The route mutex guards placement and
// usage counters; it is never held across a shard round trip.
type route struct {
	mu          sync.Mutex
	id          string
	name        string
	rows, cols  int
	nnz         int
	tol         float64
	fingerprint string
	valueDigest string
	duplicateOf string
	transition  bool
	// dangling and diag are kept router-side for partitioned handles: the
	// router runs the solver itself there, and PageRank needs the flags
	// while PCG/Jacobi need the diagonal before the blocks scatter.
	dangling []bool
	diag     []float64

	partitioned bool
	primary     shardRef
	replicas    []shardRef
	parts       []partRef

	replicating bool // a replication attempt is in flight
	rr          int  // round-robin cursor over copies
	spmvCalls   int64
	solveCalls  int64
}

// placements snapshots every hosted copy or row block of the handle.
func (rt *route) placements() []shardRef {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.partitioned {
		return append([]shardRef{rt.primary}, rt.replicas...)
	}
	refs := make([]shardRef, len(rt.parts))
	for i, p := range rt.parts {
		refs[i] = shardRef{shard: p.shard, remoteID: p.remoteID}
	}
	return refs
}

// Router is the routing node: hash ring, shard membership and health,
// per-handle placement, and the /v1 front-end that speaks the same JSON as
// ocsd itself.
type Router struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux
	// env is the request envelope shared with ocsd: the logger, the store of
	// router-side spans (request envelope + per-shard RPC spans), the
	// objective table and the /debug/slow ring.
	env server.Envelope

	mu     sync.Mutex
	ring   *Ring
	shards map[string]*ShardClient
	routes map[string]*route
	nextID atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New builds a Router over the configured shards and starts its health
// loop. Call Close to stop background work.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard URL is required")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	m := NewMetrics()
	r := &Router{
		cfg:     cfg,
		metrics: m,
		mux:     http.NewServeMux(),
		env: server.Envelope{
			Log:          logger,
			Tracer:       obs.NewTracer("ocsrouter", cfg.TraceCapacity),
			SLOs:         routerSLOs(),
			Slow:         obs.NewSlowTraces(cfg.SlowTraceCount),
			MaxBodyBytes: cfg.MaxBodyBytes,
			Requests:     &m.RequestsTotal,
			Errors:       &m.RequestErrors,
		},
		ring:   NewRing(cfg.VNodes),
		shards: make(map[string]*ShardClient),
		routes: make(map[string]*route),
		stopCh: make(chan struct{}),
	}
	for _, u := range cfg.Shards {
		sc, err := NewShardClient(u, cfg.RequestTimeout)
		if err != nil {
			return nil, err
		}
		if _, dup := r.shards[sc.Name()]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %s", sc.Name())
		}
		r.shards[sc.Name()] = sc
		r.ring.Add(sc.Name())
	}
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /admin/shards", r.handleShards)
	r.mux.HandleFunc("GET /debug/slow", r.handleSlow)
	r.mux.HandleFunc("GET /v1/trace/{id}", r.handleTraceTree)
	r.mux.Handle("POST /admin/shards", r.env.Track("add_shard", r.handleAddShard))
	r.mux.Handle("POST /admin/drain", r.env.Track("drain", r.handleDrain))
	r.mux.Handle("POST /v1/matrices", r.env.Track("register", r.handleRegister))
	r.mux.Handle("GET /v1/matrices", r.env.Track("list", r.handleList))
	r.mux.Handle("GET /v1/matrices/{id}", r.env.Track("get", r.handleGet))
	r.mux.Handle("DELETE /v1/matrices/{id}", r.env.Track("delete", r.handleDelete))
	r.mux.Handle("POST /v1/matrices/{id}/spmv", r.env.Track("spmv", r.handlePanel("spmv")))
	r.mux.Handle("POST /v1/matrices/{id}/spmm", r.env.Track("spmm", r.handlePanel("spmm")))
	r.mux.Handle("POST /v1/matrices/{id}/solve", r.env.Track("solve", r.handleSolve))

	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Metrics exposes the router telemetry (primarily for tests and the daemon).
func (r *Router) Metrics() *Metrics { return r.metrics }

// Close stops the health loop and waits for background replication work.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

// ---- health ----

func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case now := <-t.C:
			for _, sc := range r.shardList() {
				if sc.Draining() || !sc.shouldProbe(now, r.cfg.ProbeInterval) {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeInterval)
				wasHealthy := sc.Healthy()
				err := sc.Probe(ctx)
				cancel()
				if err != nil && wasHealthy {
					r.env.Log.Warn("shard unhealthy", "shard", sc.Name(), "error", err)
				} else if err == nil && !wasHealthy {
					r.env.Log.Info("shard recovered", "shard", sc.Name())
				}
			}
		}
	}
}

// shardList snapshots the membership, sorted by name.
func (r *Router) shardList() []*ShardClient {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ShardClient, 0, len(r.shards))
	for _, sc := range r.shards {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// successorClients resolves the ring's placement sequence for a key into
// clients, healthy ones first (ring order preserved within each class), so
// callers can walk the list as a failover chain.
func (r *Router) successorClients(key string, n int) []*ShardClient {
	r.mu.Lock()
	names := r.ring.Successors(key, n)
	clients := make([]*ShardClient, 0, len(names))
	for _, name := range names {
		if sc, ok := r.shards[name]; ok {
			clients = append(clients, sc)
		}
	}
	r.mu.Unlock()
	healthy := make([]*ShardClient, 0, len(clients))
	var rest []*ShardClient
	for _, sc := range clients {
		if sc.Healthy() {
			healthy = append(healthy, sc)
		} else if !sc.Draining() {
			rest = append(rest, sc)
		}
	}
	return append(healthy, rest...)
}

// ---- plumbing ----

// failShard maps a shard round-trip error onto the router's response: shard
// HTTP statuses pass through (a 404/400 means the same thing one hop up), a
// round trip cut short by the request's deadline or cancellation is 504 like
// ocsd's own expired work, a vector the router's own solve loop could not put
// on the wire is 422 like ocsd's non-finite product, and a reply that does
// not parse or a transport failure becomes 502.
func (r *Router) failShard(w http.ResponseWriter, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		r.env.Fail(w, se.Code, "%s", se.Msg)
	case server.WorkStatus(err) == http.StatusGatewayTimeout:
		r.env.Fail(w, http.StatusGatewayTimeout, "%v", err)
	case errors.As(err, new(*wire.NonFiniteError)):
		r.env.Fail(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.As(err, new(*ReplyError)):
		r.env.Fail(w, http.StatusBadGateway, "%v", err)
	default:
		r.env.Fail(w, http.StatusBadGateway, "shard unreachable: %v", err)
	}
}

func (r *Router) lookup(w http.ResponseWriter, req *http.Request) (*route, bool) {
	id := req.PathValue("id")
	r.mu.Lock()
	rt, ok := r.routes[id]
	r.mu.Unlock()
	if !ok {
		r.env.Fail(w, http.StatusNotFound, "no matrix %q", id)
		return nil, false
	}
	return rt, true
}

// callShard runs one shard round trip with latency/error accounting and
// health bookkeeping. When ctx carries a trace, an "rpc.<op>" child span
// wraps the round trip and its context replaces the request span's in the
// ctx handed to f — the ShardClient propagates it via OCS-Trace, so the
// shard's own request span parents under the RPC span and the assembled
// tree reads router → rpc → shard.
func callShard[T any](r *Router, ctx context.Context, op string, sc *ShardClient, f func(context.Context) (T, error)) (T, error) {
	var sp *obs.ActiveSpan
	if parent, ok := obs.SpanFromContext(ctx); ok {
		sp = r.env.Tracer.StartSpan("rpc."+op, parent)
		sp.SetAttr("shard", sc.Name())
		ctx = obs.ContextWithSpan(ctx, sp.Context())
	}
	start := time.Now()
	v, err := f(ctx)
	r.metrics.ObserveShard(sc.Name(), time.Since(start).Seconds(), err != nil)
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	if err != nil {
		sc.markFailure(transportFailure(err))
	} else {
		sc.markSuccess()
	}
	return v, err
}

// ---- endpoints ----

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := 0
	shards := r.shardList()
	for _, sc := range shards {
		if sc.Healthy() {
			healthy++
		}
	}
	status := http.StatusOK
	state := "ok"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "no healthy shards"
	}
	r.env.WriteJSON(w, status, map[string]any{"status": state, "shards": len(shards), "healthy": healthy})
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	shards := r.shardList()
	r.mu.Lock()
	handles := len(r.routes)
	members := len(r.ring.Members())
	r.mu.Unlock()
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	extra := []obs.Family{
		obs.ScalarFamily("ocsrouter_handles", "Global handles currently routed.", obs.KindGauge, float64(handles)),
		obs.ScalarFamily("ocsrouter_ring_members", "Shards currently on the hash ring.", obs.KindGauge, float64(members)),
	}
	_ = obs.WriteText(w, r.metrics.Families(shards, extra...))
}

// handleSlow serves the ring of slowest router requests, slowest first.
func (r *Router) handleSlow(w http.ResponseWriter, req *http.Request) {
	r.env.WriteJSON(w, http.StatusOK, SlowResponse{Slowest: r.env.Slow.List()})
}

// handleTraceTree assembles the cross-process span tree for one trace ID:
// the router's own spans (request envelope + rpc.* children) merged with
// every shard's local spans for the trace, fetched on demand. Shards that
// never saw the trace contribute nothing; unreachable shards are skipped —
// a partial tree beats a 502 when one shard is down.
func (r *Router) handleTraceTree(w http.ResponseWriter, req *http.Request) {
	trace, err := obs.ParseTraceID(req.PathValue("id"))
	if err != nil {
		r.env.Fail(w, http.StatusBadRequest, "bad trace id: %v", err)
		return
	}
	spans := r.env.Tracer.Spans(trace)
	var fetched []string
	for _, sc := range r.shardList() {
		if !sc.Healthy() && !sc.Draining() {
			continue
		}
		resp, serr := callShard(r, req.Context(), "spans", sc, func(ctx context.Context) (server.SpansResponse, error) {
			return sc.Spans(ctx, trace.String())
		})
		if serr != nil {
			continue
		}
		if resp.Count > 0 {
			fetched = append(fetched, sc.Name())
		}
		spans = append(spans, resp.Spans...)
	}
	if len(spans) == 0 {
		r.env.Fail(w, http.StatusNotFound, "no spans for trace %s (evicted or never seen)", trace)
		return
	}
	r.env.WriteJSON(w, http.StatusOK, TraceTreeResponse{
		Trace:  trace.String(),
		Spans:  len(spans),
		Shards: fetched,
		Tree:   obs.BuildTree(spans),
	})
}

func (r *Router) shardStatuses() []ShardStatus {
	counts := map[string]int{}
	r.mu.Lock()
	for _, rt := range r.routes {
		for _, ref := range rt.placements() {
			counts[ref.shard.Name()]++
		}
	}
	r.mu.Unlock()
	var out []ShardStatus
	for _, sc := range r.shardList() {
		out = append(out, ShardStatus{
			Shard:               sc.Name(),
			Healthy:             sc.Healthy(),
			Draining:            sc.Draining(),
			ConsecutiveFailures: sc.ConsecutiveFailures(),
			Handles:             counts[sc.Name()],
		})
	}
	return out
}

func (r *Router) handleShards(w http.ResponseWriter, req *http.Request) {
	r.env.WriteJSON(w, http.StatusOK, ShardsResponse{Shards: r.shardStatuses()})
}

// handleAddShard grows the membership: new registrations hash onto the new
// shard immediately; existing handles stay put (consistent hashing moves
// only the keys adjacent to the new virtual nodes, and those move lazily —
// on their next registration, not retroactively).
func (r *Router) handleAddShard(w http.ResponseWriter, req *http.Request) {
	var body AddShardRequest
	if !r.env.Decode(w, req, &body) {
		return
	}
	sc, err := NewShardClient(body.Shard, r.cfg.RequestTimeout)
	if err != nil {
		r.env.Fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.mu.Lock()
	if _, dup := r.shards[sc.Name()]; dup {
		r.mu.Unlock()
		r.env.Fail(w, http.StatusConflict, "shard %s already a member", sc.Name())
		return
	}
	r.shards[sc.Name()] = sc
	r.ring.Add(sc.Name())
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.ProbeInterval)
	defer cancel()
	_ = sc.Probe(ctx)
	r.env.Log.Info("shard added", "shard", sc.Name(), "healthy", sc.Healthy())
	r.env.WriteJSON(w, http.StatusCreated, ShardsResponse{Shards: r.shardStatuses()})
}

func (r *Router) newID() string {
	return fmt.Sprintf("g%d", r.nextID.Add(1))
}

func (r *Router) handleRegister(w http.ResponseWriter, req *http.Request) {
	var body RegisterRequest
	if !r.env.Decode(w, req, &body) {
		return
	}
	r.metrics.RegisterRequests.Add(1)

	// Only materialize the matrix router-side (with the shard's own
	// server.Materialize, so both tiers accept and build the same operator)
	// when a partitioning decision needs its geometry; plain registrations
	// stream through to one shard.
	wantParts := 0
	var csr *sparse.CSR
	var dangling []bool
	if body.Partition != nil || r.cfg.PartitionMaxNNZ > 0 {
		var err error
		csr, dangling, err = server.Materialize(body.RegisterRequest)
		if err != nil {
			r.env.Fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		switch {
		case body.Partition != nil:
			wantParts = body.Partition.Parts
		case int64(csr.NNZ()) > r.cfg.PartitionMaxNNZ:
			wantParts = int((int64(csr.NNZ()) + r.cfg.PartitionMaxNNZ - 1) / r.cfg.PartitionMaxNNZ)
		}
	}

	id := r.newID()
	if wantParts > 1 {
		r.registerPartitioned(w, req, id, body, csr, dangling, wantParts)
		return
	}
	r.registerWhole(w, req, id, body)
}

// registerWhole places the handle on one shard: the ring's owner for the
// new global ID, failing over down the successor chain.
func (r *Router) registerWhole(w http.ResponseWriter, req *http.Request, id string, body RegisterRequest) {
	candidates := r.successorClients(id, len(r.shardList()))
	if len(candidates) == 0 {
		r.env.Fail(w, http.StatusServiceUnavailable, "no shards available")
		return
	}
	var info server.MatrixInfo
	var sc *ShardClient
	var err error
	for _, cand := range candidates {
		sc = cand
		info, err = callShard(r, req.Context(), "register", sc, func(ctx context.Context) (server.MatrixInfo, error) {
			return sc.Register(ctx, body.RegisterRequest)
		})
		if err == nil {
			break
		}
		if !Retryable(err) {
			r.failShard(w, err)
			return
		}
		r.metrics.Failovers.Add(1)
	}
	if err != nil {
		r.failShard(w, err)
		return
	}
	rt := &route{
		id:          id,
		name:        body.Name,
		rows:        info.Rows,
		cols:        info.Cols,
		nnz:         info.NNZ,
		tol:         info.Tol,
		fingerprint: info.Fingerprint,
		valueDigest: info.ValueDigest,
		transition:  info.Transition,
		primary:     shardRef{shard: sc, remoteID: info.ID},
	}
	r.insertRoute(rt)
	r.env.Log.Info("matrix routed", "id", id, "shard", sc.Name(), "remote_id", info.ID,
		"nnz", info.NNZ, "fingerprint", info.Fingerprint, "duplicate_of", rt.duplicateOf)
	out := r.routeInfo(rt)
	out.Handles = []server.MatrixInfo{info}
	r.env.WriteJSON(w, http.StatusCreated, out)
}

// registerPartitioned cuts the matrix into nnz-balanced row blocks and
// spreads them over the ring's successor shards; the route keeps the
// diagonal and dangling flags so the router can drive solves itself.
func (r *Router) registerPartitioned(w http.ResponseWriter, req *http.Request, id string, body RegisterRequest, csr *sparse.CSR, dangling []bool, wantParts int) {
	targets := r.successorClients(id, wantParts)
	healthy := targets[:0]
	for _, sc := range targets {
		if sc.Healthy() {
			healthy = append(healthy, sc)
		}
	}
	if len(healthy) == 0 {
		r.env.Fail(w, http.StatusServiceUnavailable, "no healthy shards for partitioned placement")
		return
	}
	blocks, err := PartitionRows(csr, wantParts)
	if err != nil {
		r.env.Fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	rows, cols := csr.Dims()
	name := body.Name
	if name == "" {
		name = "upload"
	}
	tol := body.Tol
	parts := make([]partRef, 0, len(blocks))
	cleanup := func() {
		for _, p := range parts {
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RequestTimeout)
			_ = p.shard.Delete(ctx, p.remoteID)
			cancel()
		}
	}
	for i, b := range blocks {
		text, merr := MarshalBlock(b)
		if merr != nil {
			cleanup()
			r.env.Fail(w, http.StatusInternalServerError, "serializing block: %v", merr)
			return
		}
		breq := server.RegisterRequest{
			Name:         fmt.Sprintf("%s#%d/%d[%d,%d)", name, i+1, len(blocks), b.Lo, b.Hi),
			MatrixMarket: text,
			Tol:          tol,
		}
		sc := healthy[i%len(healthy)]
		info, rerr := callShard(r, req.Context(), "register", sc, func(ctx context.Context) (server.MatrixInfo, error) {
			return sc.Register(ctx, breq)
		})
		if rerr != nil {
			cleanup()
			r.failShard(w, rerr)
			return
		}
		parts = append(parts, partRef{lo: b.Lo, hi: b.Hi, shard: sc, remoteID: info.ID})
	}
	rt := &route{
		id:          id,
		name:        body.Name,
		rows:        rows,
		cols:        cols,
		nnz:         csr.NNZ(),
		tol:         tol,
		fingerprint: csr.Fingerprint(),
		valueDigest: csr.ValueDigest(),
		transition:  dangling != nil,
		dangling:    dangling,
		diag:        csr.Diag(),
		partitioned: true,
		parts:       parts,
	}
	r.insertRoute(rt)
	r.metrics.PartitionedRegs.Add(1)
	shardsUsed := make([]string, len(parts))
	for i, p := range parts {
		shardsUsed[i] = p.shard.Name()
	}
	r.env.Log.Info("matrix partitioned", "id", id, "parts", len(parts), "shards", shardsUsed,
		"nnz", rt.nnz, "fingerprint", rt.fingerprint)
	r.env.WriteJSON(w, http.StatusCreated, r.routeInfo(rt))
}

// insertRoute records the route, tagging structure duplicates (same
// fingerprint as an earlier live handle) for the future dedupe layer.
func (r *Router) insertRoute(rt *route) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, other := range r.routes {
		if other.fingerprint != "" && other.fingerprint == rt.fingerprint {
			if rt.duplicateOf == "" || other.id < rt.duplicateOf {
				rt.duplicateOf = other.id
			}
		}
	}
	r.routes[rt.id] = rt
}

// routeInfo renders the route document (placement + usage, no shard calls).
func (r *Router) routeInfo(rt *route) RouteInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	info := RouteInfo{
		ID:          rt.id,
		Name:        rt.name,
		Rows:        rt.rows,
		Cols:        rt.cols,
		NNZ:         rt.nnz,
		Tol:         rt.tol,
		Transition:  rt.transition,
		Fingerprint: rt.fingerprint,
		DuplicateOf: rt.duplicateOf,
		Partitioned: rt.partitioned,
		SpMVCalls:   rt.spmvCalls,
		SolveCalls:  rt.solveCalls,
	}
	if rt.partitioned {
		for _, p := range rt.parts {
			info.Parts = append(info.Parts, Placement{Shard: p.shard.Name(), RemoteID: p.remoteID, RowLo: p.lo, RowHi: p.hi})
		}
	} else {
		info.Primary = &Placement{Shard: rt.primary.shard.Name(), RemoteID: rt.primary.remoteID, RowLo: 0, RowHi: rt.rows}
		for _, rep := range rt.replicas {
			info.Replicas = append(info.Replicas, Placement{Shard: rep.shard.Name(), RemoteID: rep.remoteID, RowLo: 0, RowHi: rt.rows})
		}
	}
	return info
}

func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	rts := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		rts = append(rts, rt)
	}
	r.mu.Unlock()
	sort.Slice(rts, func(i, j int) bool { return rts[i].id < rts[j].id })
	resp := ListResponse{Matrices: make([]RouteInfo, 0, len(rts)), Shards: r.shardStatuses()}
	for _, rt := range rts {
		resp.Matrices = append(resp.Matrices, r.routeInfo(rt))
	}
	r.env.WriteJSON(w, http.StatusOK, resp)
}

func (r *Router) handleGet(w http.ResponseWriter, req *http.Request) {
	rt, ok := r.lookup(w, req)
	if !ok {
		return
	}
	info := r.routeInfo(rt)
	// Pull the shard-side stats for every placement so the caller sees the
	// full ledger: each copy's selector state and paid/hidden overhead.
	for _, ref := range rt.placements() {
		ref := ref
		mi, err := callShard(r, req.Context(), "get", ref.shard, func(ctx context.Context) (server.MatrixInfo, error) {
			return ref.shard.Get(ctx, ref.remoteID)
		})
		if err != nil {
			continue // placement stats are best-effort; health marking already done
		}
		info.Handles = append(info.Handles, mi)
	}
	r.env.WriteJSON(w, http.StatusOK, info)
}

func (r *Router) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.Lock()
	rt, ok := r.routes[id]
	if ok {
		delete(r.routes, id)
	}
	r.mu.Unlock()
	if !ok {
		r.env.Fail(w, http.StatusNotFound, "no matrix %q", id)
		return
	}
	for _, ref := range rt.placements() {
		ref := ref
		_, _ = callShard(r, req.Context(), "delete", ref.shard, func(ctx context.Context) (struct{}, error) {
			return struct{}{}, ref.shard.Delete(ctx, ref.remoteID)
		})
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- spmv / spmm ----

// copies returns a whole handle's copies in the order to try them: healthy
// ones first, unhealthy ones as a last resort. Reads (rotate) start from the
// round-robin cursor so replicas genuinely share fan-out load; solves start
// from the primary, whose selector accumulates the handle's solve history,
// and fall back to replicas only on failure.
func (rt *route) copies(rotate bool) (attempts []shardRef, primary shardRef) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	all := make([]shardRef, 0, 1+len(rt.replicas))
	all = append(all, rt.primary)
	all = append(all, rt.replicas...)
	if rotate {
		start := rt.rr % len(all)
		rt.rr++
		all = slices.Concat(all[start:], all[:start])
	}
	healthy := make([]shardRef, 0, len(all))
	var rest []shardRef
	for _, ref := range all {
		if ref.shard.Healthy() {
			healthy = append(healthy, ref)
		} else {
			rest = append(rest, ref)
		}
	}
	return append(healthy, rest...), rt.primary
}

// handlePanel routes /spmv and /spmm (op names the endpoint): a whole handle
// forwards the request to one of its copies, a partitioned handle fans it
// out over the row blocks and gathers the product. The router converts no
// float on this path: the body is scanned for its shape, the client's bytes
// go to the shards unchanged, and the reply is spliced from the byte spans
// of the shards' product vectors.
func (r *Router) handlePanel(op string) http.HandlerFunc {
	requests, seconds := &r.metrics.SpMVRequests, r.metrics.SpMVSeconds
	if op == "spmm" {
		requests, seconds = &r.metrics.SpMMRequests, r.metrics.SpMMSeconds
	}
	return func(w http.ResponseWriter, req *http.Request) {
		rt, ok := r.lookup(w, req)
		if !ok {
			return
		}
		sc, traced := obs.SpanFromContext(req.Context())
		scanStart := time.Now()
		body, lay, k, ok := r.env.ReadPanel(w, req, rt.cols)
		if !ok {
			return
		}
		defer func() { wire.PutBuf(body) }() // the reply may move to another buffer
		r.env.WireSpan(sc, "wire.scan", scanStart, len(*body), k)
		requests.Add(1)
		start := time.Now()
		traceHex := ""
		if traced {
			traceHex = sc.Trace.String()
		}
		defer func() { seconds.ObserveExemplar(time.Since(start).Seconds(), traceHex) }()

		if rt.partitioned {
			if lay.RowLo != 0 || lay.RowHi != 0 {
				r.env.Fail(w, http.StatusBadRequest, "row_lo/row_hi are not supported on partitioned handles")
				return
			}
			blocks, served, err := r.gather(req.Context(), rt, op, *body, k)
			if err != nil {
				r.failShard(w, err)
				return
			}
			tail := wire.Tail{Format: "distributed", ServedBy: served}
			if op == "spmm" {
				tail.K = k
			}
			body = r.replyPanel(w, sc, rt, blocks, tail, body)
			return
		}

		// A whole copy answers whatever valid row range the client asked for.
		rows := rt.rows
		if lay.RowLo != 0 || lay.RowHi != 0 {
			rows = lay.RowHi - lay.RowLo
		}
		attempts, primary := rt.copies(true)
		var lastErr error
		for i, ref := range attempts {
			if i > 0 {
				r.metrics.Failovers.Add(1)
			}
			ref := ref
			block, err := callShard(r, req.Context(), op, ref.shard, func(ctx context.Context) (blockReply, error) {
				return panelBlock(ctx, ref.shard, op, ref.remoteID, *body, k, rows)
			})
			if err != nil {
				lastErr = err
				if !Retryable(err) {
					break
				}
				continue
			}
			if ref == primary {
				r.metrics.PrimaryHits.Add(1)
			} else {
				r.metrics.ReplicaHits.Add(1)
			}
			body = r.replyPanel(w, sc, rt, []blockReply{block},
				wire.Tail{K: block.lay.K, Format: block.lay.Format, ServedBy: []string{ref.shard.Name()}}, body)
			r.maybeReplicate(rt)
			return
		}
		r.failShard(w, lastErr)
	}
}

// replyPanel answers a panel request by splicing the shards' product vectors
// (one block for a whole copy, the row blocks in order for a partitioned
// handle) under the router's own tail, and releases the blocks. The reply is
// built over the request body when that buffer has the room: every shard has
// answered, so the request's bytes are dead. It returns the buffer the caller
// now owns.
func (r *Router) replyPanel(w http.ResponseWriter, sc obs.SpanContext, rt *route, blocks []blockReply, tail wire.Tail, buf *[]byte) *[]byte {
	defer releaseBlocks(blocks)
	start := time.Now()
	bodies, lays := make([][]byte, len(blocks)), make([]wire.Layout, len(blocks))
	size := 256 // the tail
	for i, b := range blocks {
		bodies[i], lays[i] = *b.body, b.lay
		size += len(*b.body)
	}
	k := len(lays[0].Vectors)
	buf = wire.Recycle(buf, size)
	*buf = wire.Splice(*buf, bodies, lays, tail)
	r.env.WireSpan(sc, "wire.splice", start, len(*buf), k)
	rt.mu.Lock()
	rt.spmvCalls += int64(k)
	rt.mu.Unlock()
	r.env.WriteBody(w, http.StatusOK, *buf)
	return buf
}

// blockReply is one shard's scanned, unconverted panel reply; body is pooled.
type blockReply struct {
	body *[]byte
	lay  wire.Layout
}

func releaseBlocks(blocks []blockReply) {
	for _, b := range blocks {
		wire.PutBuf(b.body)
	}
}

// panelBlock is one shard's share of a panel: the raw round trip plus the
// shape check on what came back — k vectors, each of rows entries. A reply
// of the wrong shape is a *ReplyError.
func panelBlock(ctx context.Context, sc *ShardClient, op, id string, body []byte, k, rows int) (blockReply, error) {
	reply, lay, err := sc.panelRaw(ctx, op, id, body)
	if err != nil {
		return blockReply{}, err
	}
	if len(lay.Vectors) != k {
		err = fmt.Errorf("%d vectors, want %d", len(lay.Vectors), k)
	}
	for _, y := range lay.Vectors {
		if y.N != rows {
			err = fmt.Errorf("a vector of %d rows, want %d", y.N, rows)
		}
	}
	if err != nil {
		wire.PutBuf(reply)
		return blockReply{}, &ReplyError{err}
	}
	return blockReply{body: reply, lay: lay}, nil
}

// gather runs the distributed product (op "spmv" or "spmm"): the same
// encoded k-vector request (body; it carries the progress indicator, if any,
// so the shard-side selector pipelines advance — a distributed solve's loop
// runs router-side) goes to every row block in parallel and each shard
// returns its block of the product, handed back as scanned bytes in block
// order; release them with releaseBlocks. The HTTP path splices them into
// the reply, the solver path decodes them into its vector. Every row is
// summed entirely on one shard, so the gathered vectors are bit-identical to
// the single-process product no matter how the rows were cut.
func (r *Router) gather(ctx context.Context, rt *route, op string, body []byte, k int) ([]blockReply, []string, error) {
	rt.mu.Lock()
	parts := append([]partRef(nil), rt.parts...)
	rt.mu.Unlock()

	blocks := make([]blockReply, len(parts))
	served := make([]string, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for pi := range parts {
		wg.Add(1)
		go func(pi int, p partRef) {
			defer wg.Done()
			served[pi] = p.shard.Name()
			var err error
			// One in-place retry absorbs transient queue-full rejections;
			// blocks have a single placement, so there is no replica to
			// fail over to (whole-handle replicas cover that case).
			for attempt := 0; attempt < 2; attempt++ {
				blocks[pi], err = callShard(r, ctx, op, p.shard, func(ctx context.Context) (blockReply, error) {
					return panelBlock(ctx, p.shard, op, p.remoteID, body, k, p.hi-p.lo)
				})
				if err == nil || !Retryable(err) {
					break
				}
			}
			if err != nil {
				errs[pi] = fmt.Errorf("block [%d,%d) on %s: %w", p.lo, p.hi, p.shard.Name(), err)
			}
		}(pi, parts[pi])
	}
	wg.Wait()
	r.metrics.PartialFanouts.Add(1)
	for _, err := range errs {
		if err != nil {
			releaseBlocks(blocks)
			return nil, nil, err
		}
	}
	return blocks, served, nil
}

// ---- replication ----

// maybeReplicate kicks off a background copy of a hot whole handle onto the
// next shard in its placement sequence, toward the configured replication
// factor. At most one attempt is in flight per route.
func (r *Router) maybeReplicate(rt *route) {
	if r.cfg.ReplicateAfter <= 0 {
		return
	}
	rt.mu.Lock()
	hot := !rt.partitioned && rt.spmvCalls >= r.cfg.ReplicateAfter &&
		1+len(rt.replicas) < r.cfg.ReplicationFactor && !rt.replicating
	if hot {
		rt.replicating = true
	}
	rt.mu.Unlock()
	if !hot {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.replicate(rt)
	}()
}

// replicate copies a route's handle onto one additional shard. Runs off the
// request path: the client that made the handle hot never waits on it — in
// ledger terms the copy's full T_convert+transfer is hidden overhead, paid
// by no request.
func (r *Router) replicate(rt *route) {
	done := func(ok bool) {
		rt.mu.Lock()
		rt.replicating = false
		rt.mu.Unlock()
		if ok {
			r.metrics.Replications.Add(1)
		}
	}
	rt.mu.Lock()
	hosting := map[string]bool{rt.primary.shard.Name(): true}
	for _, rep := range rt.replicas {
		hosting[rep.shard.Name()] = true
	}
	source := rt.primary
	id := rt.id
	rt.mu.Unlock()

	// Prefer a shard that already hosts an identical matrix through another
	// route: its registry dedups the registration into an alias of the
	// resident copy, so the replica costs the target nothing but a handle.
	prefer := r.aliasTargets(rt)
	var target, fallback *ShardClient
	for _, sc := range r.successorClients(id, len(r.shardList())) {
		if hosting[sc.Name()] || !sc.Healthy() {
			continue
		}
		if prefer[sc.Name()] {
			target = sc
			break
		}
		if fallback == nil {
			fallback = sc
		}
	}
	if target == nil {
		target = fallback
	}
	if target == nil {
		done(false)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RequestTimeout)
	defer cancel()
	exp, err := callShard(r, ctx, "export", source.shard, func(ctx context.Context) (server.ExportResponse, error) {
		return source.shard.Export(ctx, source.remoteID)
	})
	if err != nil {
		r.env.Log.Warn("replication export failed", "id", id, "source", source.shard.Name(), "error", err)
		done(false)
		return
	}
	info, err := r.registerExport(ctx, target, exp)
	if err != nil {
		r.env.Log.Warn("replication register failed", "id", id, "target", target.Name(), "error", err)
		done(false)
		return
	}
	rt.mu.Lock()
	rt.replicas = append(rt.replicas, shardRef{shard: target, remoteID: info.ID})
	copies := 1 + len(rt.replicas)
	rt.mu.Unlock()
	done(true)
	if info.DuplicateOf != "" {
		r.metrics.ReplicaAliases.Add(1)
	}
	r.env.Log.Info("handle replicated", "id", id, "target", target.Name(), "remote_id", info.ID,
		"copies", copies, "aliased", info.DuplicateOf != "")
}

// aliasTargets returns the shards hosting, via some other route, a whole
// copy of the same matrix as rt (same structure fingerprint AND value
// digest). Registering rt's replica on one of them dedup-aliases the
// resident arrays instead of storing a second copy.
func (r *Router) aliasTargets(rt *route) map[string]bool {
	rt.mu.Lock()
	fp, vd := rt.fingerprint, rt.valueDigest
	rt.mu.Unlock()
	out := map[string]bool{}
	if fp == "" || vd == "" {
		return out
	}
	r.mu.Lock()
	others := make([]*route, 0, len(r.routes))
	for _, other := range r.routes {
		if other != rt {
			others = append(others, other)
		}
	}
	r.mu.Unlock()
	for _, other := range others {
		other.mu.Lock()
		if !other.partitioned && other.fingerprint == fp && other.valueDigest == vd {
			out[other.primary.shard.Name()] = true
			for _, rep := range other.replicas {
				out[rep.shard.Name()] = true
			}
		}
		other.mu.Unlock()
	}
	return out
}

// ---- solve ----

func (r *Router) handleSolve(w http.ResponseWriter, req *http.Request) {
	rt, ok := r.lookup(w, req)
	if !ok {
		return
	}
	var body server.SolveRequest
	if !r.env.Decode(w, req, &body) {
		return
	}
	r.metrics.SolveRequests.Add(1)
	start := time.Now()
	traceHex := ""
	if sc, ok := obs.SpanFromContext(req.Context()); ok {
		traceHex = sc.Trace.String()
	}
	defer func() { r.metrics.SolveSeconds.ObserveExemplar(time.Since(start).Seconds(), traceHex) }()

	if rt.partitioned {
		r.distSolve(w, req, rt, body)
		return
	}
	attempts, _ := rt.copies(false)
	var lastErr error
	for i, ref := range attempts {
		if i > 0 {
			r.metrics.Failovers.Add(1)
		}
		ref := ref
		resp, err := callShard(r, req.Context(), "solve", ref.shard, func(ctx context.Context) (server.SolveResponse, error) {
			return ref.shard.Solve(ctx, ref.remoteID, body)
		})
		if err != nil {
			lastErr = err
			if !Retryable(err) {
				break
			}
			continue
		}
		rt.mu.Lock()
		rt.solveCalls++
		rt.spmvCalls += int64(resp.SpMVCalls)
		rt.mu.Unlock()
		r.maybeReplicate(rt)
		r.env.WriteJSON(w, http.StatusOK, SolveResponse{SolveResponse: resp, ServedBy: []string{ref.shard.Name()}})
		return
	}
	r.failShard(w, lastErr)
}

// distPanic carries a shard failure out of an Operator.SpMV call (whose
// signature has no error) up to the solve handler.
type distPanic struct{ err error }

// distOp adapts the partitioned route into the apps.Operator contract: each
// SpMV is one fan-out/gather round trip across the blocks. progress carries
// the solve loop's latest progress indicator (set by the solver hook, read
// by the next fan-out) so the shard-side selectors see iteration progress.
type distOp struct {
	r        *Router
	rt       *route
	ctx      context.Context
	progress *float64
}

func (d *distOp) Dims() (int, int) { return d.rt.rows, d.rt.cols }

// SpMV serialises x once for all blocks and decodes each block's reply
// straight into its rows of y.
func (d *distOp) SpMV(y, x []float64) {
	body := wire.GetBuf(len(x)*wire.MaxFloatLen + 64)
	defer wire.PutBuf(body)
	var err error
	if *body, err = wire.AppendRequest(*body, [][]float64{x}, 0, 0, d.progress); err != nil {
		panic(distPanic{err})
	}
	blocks, _, err := d.r.gather(d.ctx, d.rt, "spmv", *body, 1)
	if err != nil {
		panic(distPanic{err})
	}
	defer releaseBlocks(blocks)
	lo := 0
	for _, b := range blocks {
		sp := b.lay.Vectors[0]
		if err := wire.DecodeVector((*b.body)[sp.Lo:sp.Hi], y[lo:lo+sp.N], 1); err != nil {
			panic(distPanic{&ReplyError{err}})
		}
		lo += sp.N
	}
}

// distSolve runs a solver at the router against the partitioned operator
// (server.RunSolve, the same runner ocsd uses): scalar work (dot products,
// orthogonalization) happens router-side on full-length vectors, every SpMV
// fans out to the block shards. The math is the single-process algorithm
// verbatim — same iteration order, same reductions — so the result matches a
// single ocsd bit-for-bit when the blocks stay in CSR, and within the Higham
// kernel bound otherwise.
func (r *Router) distSolve(w http.ResponseWriter, req *http.Request, rt *route, body server.SolveRequest) {
	timeout := r.cfg.RequestTimeout
	if body.TimeoutMillis > 0 {
		timeout = time.Duration(body.TimeoutMillis) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	defer cancel()
	op := &distOp{r: r, rt: rt, ctx: ctx}
	// The hook runs on the solver goroutine between iterations — the same
	// goroutine that calls op.SpMV — so the next fan-out forwards the value
	// without synchronization.
	hook := func(_ int, v float64) { op.progress = &v }

	var (
		res      apps.Result
		eig      *float64
		err      error
		shardErr error // a block round trip failed (surfaced through distPanic)
		start    = time.Now()
	)
	func() {
		defer func() {
			if p := recover(); p != nil {
				dp, ok := p.(distPanic)
				if !ok {
					panic(p)
				}
				shardErr = dp.err
			}
		}()
		res, eig, err = server.RunSolve(ctx, op, rt.id, body, func() []float64 { return rt.diag }, rt.dangling, hook)
	}()
	// One status mapping for both tiers, keyed on error identity: a failed
	// block round trip answers like any other shard failure, a solver-level
	// refusal gets ocsd's own WorkStatus.
	if shardErr != nil {
		r.failShard(w, shardErr)
		return
	}
	if err != nil {
		r.env.Fail(w, server.WorkStatus(err), "%v", err)
		return
	}

	rt.mu.Lock()
	rt.solveCalls++
	rt.spmvCalls += int64(res.SpMVs)
	parts := append([]partRef(nil), rt.parts...)
	rt.mu.Unlock()

	// Aggregate the shard-side ledgers: the cross-shard request's selector
	// overheads are the sum over blocks (each block ran its own pipeline),
	// keeping the T_affected split (paid on some shard's request path,
	// hidden behind its in-flight work) visible one hop up.
	agg, served := r.aggregateSelector(req.Context(), parts)
	resp := server.SolveResponse{
		App:            body.App,
		Iterations:     res.Iterations,
		SpMVCalls:      res.SpMVs,
		Converged:      res.Converged,
		Residual:       res.Residual,
		Format:         "distributed",
		DurationMillis: float64(time.Since(start).Microseconds()) / 1000,
		Selector:       agg,
		Eigenvalue:     eig,
	}
	if body.IncludeX {
		resp.X = res.X
	}
	r.env.WriteJSON(w, http.StatusOK, SolveResponse{SolveResponse: resp, ServedBy: served})
}

// aggregateSelector sums the per-block selector stats into one document and
// returns the serving shard names.
func (r *Router) aggregateSelector(ctx context.Context, parts []partRef) (server.SelectorStats, []string) {
	var agg server.SelectorStats
	formats := make([]string, 0, len(parts))
	served := make([]string, 0, len(parts))
	seen := map[string]bool{}
	for _, p := range parts {
		p := p
		served = append(served, p.shard.Name())
		mi, err := callShard(r, ctx, "get", p.shard, func(ctx context.Context) (server.MatrixInfo, error) {
			return p.shard.Get(ctx, p.remoteID)
		})
		if err != nil {
			continue
		}
		st := mi.Selector
		agg.Iterations += st.Iterations
		agg.Stage1Ran = agg.Stage1Ran || st.Stage1Ran
		agg.Stage2Ran = agg.Stage2Ran || st.Stage2Ran
		agg.Converted = agg.Converted || st.Converted
		agg.FeatureSeconds += st.FeatureSeconds
		agg.PredictSeconds += st.PredictSeconds
		agg.ConvertSeconds += st.ConvertSeconds
		agg.Async = agg.Async || st.Async
		agg.Pending = agg.Pending || st.Pending
		agg.PaidSeconds += st.PaidSeconds
		agg.HiddenSeconds += st.HiddenSeconds
		agg.SpMMCalls += st.SpMMCalls
		agg.ConvCacheHit = agg.ConvCacheHit || st.ConvCacheHit
		if !seen[st.Format] {
			seen[st.Format] = true
			formats = append(formats, st.Format)
		}
	}
	agg.Format = strings.Join(formats, ",")
	return agg, served
}

// ---- drain / rebalance ----

func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	var body DrainRequest
	if !r.env.Decode(w, req, &body) {
		return
	}
	name := strings.TrimSuffix(body.Shard, "/")
	r.mu.Lock()
	sc, ok := r.shards[name]
	if ok {
		r.ring.Remove(name)
	}
	r.mu.Unlock()
	if !ok {
		r.env.Fail(w, http.StatusNotFound, "no shard %q", name)
		return
	}
	sc.SetDraining(true)
	resp := r.drainShard(req.Context(), sc)
	r.env.Log.Info("shard drained", "shard", name, "promoted", resp.Promoted, "moved", resp.Moved, "lost", len(resp.Lost))
	r.env.WriteJSON(w, http.StatusOK, resp)
}

// drainShard re-homes every placement off sc: whole handles promote an
// existing replica when one is healthy, otherwise export+register to the
// ring's new owner; row blocks always export+register. The drained shard
// stays a member (admin-visible, probed) but owns no ring points, so
// nothing new lands on it.
func (r *Router) drainShard(ctx context.Context, sc *ShardClient) DrainResponse {
	resp := DrainResponse{Shard: sc.Name()}
	r.mu.Lock()
	rts := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		rts = append(rts, rt)
	}
	r.mu.Unlock()
	sort.Slice(rts, func(i, j int) bool { return rts[i].id < rts[j].id })

	var abandoned []shardRef // handles to delete from the drained shard
	for _, rt := range rts {
		rt.mu.Lock()
		if rt.partitioned {
			moves := make([]int, 0, 1)
			for pi, p := range rt.parts {
				if p.shard == sc {
					moves = append(moves, pi)
				}
			}
			rt.mu.Unlock()
			for _, pi := range moves {
				rt.mu.Lock()
				p := rt.parts[pi]
				rt.mu.Unlock()
				if ref, ok := r.rehome(ctx, fmt.Sprintf("%s#%d", rt.id, pi), shardRef{shard: sc, remoteID: p.remoteID}); ok {
					rt.mu.Lock()
					rt.parts[pi] = partRef{lo: p.lo, hi: p.hi, shard: ref.shard, remoteID: ref.remoteID}
					rt.mu.Unlock()
					resp.Moved++
					r.metrics.Rebalances.Add(1)
				} else {
					resp.Lost = append(resp.Lost, fmt.Sprintf("%s part %d", rt.id, pi))
				}
			}
			continue
		}
		// Whole handle: drop replicas on the shard, re-home the primary.
		kept := rt.replicas[:0]
		var healthyReplica *shardRef
		for i := range rt.replicas {
			rep := rt.replicas[i]
			if rep.shard == sc {
				abandoned = append(abandoned, rep)
				continue
			}
			kept = append(kept, rep)
			if healthyReplica == nil && rep.shard.Healthy() {
				healthyReplica = &kept[len(kept)-1]
			}
		}
		rt.replicas = kept
		primaryHere := rt.primary.shard == sc
		var oldPrimary shardRef
		if primaryHere {
			oldPrimary = rt.primary
			if healthyReplica != nil {
				// Promote: the replica becomes authoritative, no data moves.
				rt.primary = *healthyReplica
				rt.replicas = removeRef(rt.replicas, *healthyReplica)
				resp.Promoted++
			}
		}
		promoted := primaryHere && healthyReplica != nil
		rt.mu.Unlock()
		if primaryHere && !promoted {
			if ref, ok := r.rehome(ctx, rt.id, oldPrimary); ok {
				rt.mu.Lock()
				rt.primary = ref
				rt.mu.Unlock()
				resp.Moved++
				r.metrics.Rebalances.Add(1)
				abandoned = append(abandoned, oldPrimary)
			} else {
				resp.Lost = append(resp.Lost, rt.id)
			}
		} else if promoted {
			abandoned = append(abandoned, oldPrimary)
		}
	}
	// Best-effort cleanup on the drained shard; failures are fine (the
	// shard may already be gone).
	for _, ref := range abandoned {
		_ = ref.shard.Delete(ctx, ref.remoteID)
	}
	return resp
}

// removeRef filters one ref out of a slice.
func removeRef(refs []shardRef, drop shardRef) []shardRef {
	out := refs[:0]
	for _, ref := range refs {
		if ref != drop {
			out = append(out, ref)
		}
	}
	return out
}

// registerExport re-registers an exported handle verbatim on target.
func (r *Router) registerExport(ctx context.Context, target *ShardClient, exp server.ExportResponse) (server.MatrixInfo, error) {
	return callShard(r, ctx, "register", target, func(ctx context.Context) (server.MatrixInfo, error) {
		return target.Register(ctx, server.RegisterRequest{
			Name: exp.Name, MatrixMarket: exp.MatrixMarket, Tol: exp.Tol, Dangling: exp.Dangling,
		})
	})
}

// rehome exports one placement — a whole copy or a row block — from its
// (possibly still reachable) old shard and registers it on the first healthy
// shard of key's ring successors, returning the new placement.
func (r *Router) rehome(ctx context.Context, key string, from shardRef) (shardRef, bool) {
	exp, err := callShard(r, ctx, "export", from.shard, func(ctx context.Context) (server.ExportResponse, error) {
		return from.shard.Export(ctx, from.remoteID)
	})
	if err != nil {
		r.env.Log.Warn("drain export failed", "placement", key, "from", from.shard.Name(), "error", err)
		return shardRef{}, false
	}
	for _, target := range r.successorClients(key, len(r.shardList())) {
		if target == from.shard || !target.Healthy() {
			continue
		}
		if info, rerr := r.registerExport(ctx, target, exp); rerr == nil {
			return shardRef{shard: target, remoteID: info.ID}, true
		}
	}
	return shardRef{}, false
}
