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
	"repro/internal/wire"
)

// Config sizes the router. Zero values get production-ready defaults.
type Config struct {
	// Shards lists the initial shard base URLs (scheme://host:port).
	Shards []string
	// ReplicateAfter is the spmv-vector count past which a whole handle is
	// considered hot and gets a second copy; 0 disables replication.
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
	// Logger receives structured logs; nil uses slog.Default().
	Logger *slog.Logger
}

// hotCopies is how many copies replication brings a hot whole handle to,
// primary included.
const hotCopies = 2

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
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	return c
}

// shardRef is one hosted copy of a row block: the shard and the ID the
// shard gave the handle.
type shardRef struct {
	shard    *ShardClient
	remoteID string
}

// block is one contiguous row range [lo, hi) of a handle and the shards
// hosting a copy of it. copies[0] is the primary: a forwarded solve starts
// there, so its selector keeps the handle's solve history.
type block struct {
	lo, hi int
	copies []shardRef
}

// route is the router's record of one global handle: identity, geometry,
// and where its row blocks live. The route mutex guards the copies, the
// deleted mark and the usage counters; it is never held across a shard
// round trip.
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

	// blocks tile [0, rows) in row order. A whole handle is one block, which
	// may have several copies; a partitioned handle is several blocks. The
	// slice and each block's range are fixed at registration: replication
	// and drain change only a block's copies.
	blocks []block

	deleted     bool // the handle is gone: a copy registered now must go too
	replicating bool // a replication attempt is in flight
	rr          int  // round-robin cursor over copies
	spmvCalls   int64
	solveCalls  int64
}

// partitioned reports whether the handle is cut into several row blocks,
// whose products the router gathers and whose solves it runs itself.
func (rt *route) partitioned() bool { return len(rt.blocks) > 1 }

// placements snapshots every hosted copy of every row block of the handle.
func (rt *route) placements() []shardRef {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var refs []shardRef
	for _, b := range rt.blocks {
		refs = append(refs, b.copies...)
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
			Log:      logger,
			Tracer:   obs.NewTracer("ocsrouter", 0),
			SLOs:     routerSLOs(),
			Slow:     obs.NewSlowTraces(0),
			Requests: &m.RequestsTotal,
			Errors:   &m.RequestErrors,
		},
		ring:   NewRing(0),
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

// successorClients resolves the ring's placement sequence for a key,
// rotated by rot, into clients: healthy ones first (order preserved within
// each class), draining ones never, so callers walk the list as a failover
// chain. Row block i of a handle walks rotation i, so with every shard
// healthy consecutive blocks start on consecutive successors.
func (r *Router) successorClients(key string, rot int) []*ShardClient {
	r.mu.Lock()
	names := r.ring.Successors(key, len(r.shards))
	clients := make([]*ShardClient, 0, len(names))
	for _, name := range names {
		if sc, ok := r.shards[name]; ok {
			clients = append(clients, sc)
		}
	}
	r.mu.Unlock()
	if len(clients) > 0 {
		rot %= len(clients)
		clients = slices.Concat(clients[rot:], clients[:rot])
	}
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

// errNoShards answers a registration with nowhere to go like a shard that
// is out of capacity.
var errNoShards = &StatusError{Code: http.StatusServiceUnavailable, Msg: "no shards available"}

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

// walk runs one call (op names it) against block bi of rt, trying the
// block's copies in turn until one answers or a failure is not worth
// retrying: a 4xx is the client's answer on every copy. Healthy copies go
// first. A read (spmv, spmm) starts at the route's round-robin cursor, so
// copies share the load, and retries a lone copy once in place; a forwarded
// solve starts at the primary and never runs twice on one copy. Moving on to
// a different copy is a failover. walk returns the copy it tried last.
func walk[T any](r *Router, ctx context.Context, rt *route, bi int, op string, f func(context.Context, shardRef) (T, error)) (T, shardRef, error) {
	read := op != "solve"
	rt.mu.Lock()
	copies := rt.blocks[bi].copies
	start := 0
	if read && len(copies) > 1 {
		start = rt.rr % len(copies)
		rt.rr++
	}
	order := make([]shardRef, 0, len(copies)+1)
	for _, healthy := range []bool{true, false} {
		for i := range copies {
			if ref := copies[(start+i)%len(copies)]; ref.shard.Healthy() == healthy {
				order = append(order, ref)
			}
		}
	}
	primary := copies[0]
	rt.mu.Unlock()
	if read && len(order) == 1 {
		order = append(order, order[0])
	}

	var v T
	var err error
	var ref shardRef
	for i := range order {
		if i > 0 && order[i] != ref {
			r.metrics.Failovers.Add(1)
		}
		ref = order[i]
		v, err = callShard(r, ctx, op, ref.shard, func(ctx context.Context) (T, error) { return f(ctx, ref) })
		if err == nil {
			if read {
				hits := &r.metrics.ReplicaHits
				if ref == primary {
					hits = &r.metrics.PrimaryHits
				}
				hits.Add(1)
			}
			return v, ref, nil
		}
		if !Retryable(err) {
			break
		}
	}
	return v, ref, err
}

// drop deletes copies on their shards, best effort: a failure leaves behind
// nothing the router still points at. The deletes outlive the request that
// asked for them.
func (r *Router) drop(ctx context.Context, refs []shardRef) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), r.cfg.RequestTimeout)
	defer cancel()
	for _, ref := range refs {
		_, _ = callShard(r, ctx, "delete", ref.shard, func(ctx context.Context) (struct{}, error) {
			return struct{}{}, ref.shard.Delete(ctx, ref.remoteID)
		})
	}
}

// install records a copy just registered for block bi of rt. A new replica
// (from nil) joins the back of the block's copies; a copy re-homed off shard
// from replaces the block's copies there and becomes its primary. If the
// handle was deleted while the copy was being made, nothing would ever
// delete the copy on its shard, so install deletes it and reports false.
func (r *Router) install(ctx context.Context, rt *route, bi int, ref shardRef, from *ShardClient) bool {
	rt.mu.Lock()
	deleted := rt.deleted
	switch b := &rt.blocks[bi]; {
	case deleted:
	case from == nil:
		b.copies = append(b.copies, ref)
	default:
		kept := []shardRef{ref}
		for _, c := range b.copies {
			if c.shard != from {
				kept = append(kept, c)
			}
		}
		b.copies = kept
	}
	rt.mu.Unlock()
	if deleted {
		r.drop(ctx, []shardRef{ref})
	}
	return !deleted
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

// handleRegister places a new handle as row blocks. A handle that stays one
// block is the client's request forwarded unchanged, and the router reads
// its geometry from the shard's reply. The router materializes the matrix
// (with the shard's own server.Materialize, so both tiers accept and build
// the same operator) only when a partitioning decision needs its geometry.
// A cut into several blocks sends each as Matrix Market text and keeps the
// diagonal and dangling flags router-side, so the router can drive solves
// itself; a cut into one block is a whole handle.
func (r *Router) handleRegister(w http.ResponseWriter, req *http.Request) {
	var body RegisterRequest
	if !r.env.Decode(w, req, &body) {
		return
	}
	r.metrics.RegisterRequests.Add(1)

	rt := &route{name: body.Name}
	var cut []RowBlock
	if body.Partition != nil || r.cfg.PartitionMaxNNZ > 0 {
		// No registry stands behind the router, so nothing bounds the spec.
		csr, dangling, err := server.Materialize(body.RegisterRequest, 0)
		if err != nil {
			r.env.Fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		wantParts := 0
		switch {
		case body.Partition != nil:
			wantParts = body.Partition.Parts
		case int64(csr.NNZ()) > r.cfg.PartitionMaxNNZ:
			wantParts = int((int64(csr.NNZ()) + r.cfg.PartitionMaxNNZ - 1) / r.cfg.PartitionMaxNNZ)
		}
		if wantParts > 1 {
			if cut, err = PartitionRows(csr, wantParts); err != nil {
				r.env.Fail(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if len(cut) > 1 {
			rt.rows, rt.cols = csr.Dims()
			rt.nnz, rt.tol = csr.NNZ(), body.Tol
			rt.fingerprint, rt.valueDigest = csr.Fingerprint(), csr.ValueDigest()
			rt.transition, rt.dangling, rt.diag = dangling != nil, dangling, csr.Diag()
		}
	}
	rt.id = r.newID()

	request := func(int) server.RegisterRequest { return body.RegisterRequest }
	rt.blocks = make([]block, max(len(cut), 1))
	if len(cut) > 1 {
		name := body.Name
		if name == "" {
			name = "upload"
		}
		for i, b := range cut {
			rt.blocks[i] = block{lo: b.Lo, hi: b.Hi}
		}
		request = func(i int) server.RegisterRequest {
			b := cut[i]
			return server.RegisterRequest{
				Name:         fmt.Sprintf("%s#%d/%d[%d,%d)", name, i+1, len(cut), b.Lo, b.Hi),
				MatrixMarket: MarshalBlock(b),
				Tol:          body.Tol,
			}
		}
	}
	infos, err := r.place(req.Context(), rt, request)
	if err != nil {
		r.failShard(w, err)
		return
	}
	if !rt.partitioned() {
		info := infos[0]
		rt.rows, rt.cols, rt.nnz, rt.tol = info.Rows, info.Cols, info.NNZ, info.Tol
		rt.fingerprint, rt.valueDigest, rt.transition = info.Fingerprint, info.ValueDigest, info.Transition
		rt.blocks[0].hi = info.Rows
	} else {
		r.metrics.PartitionedRegs.Add(1)
	}
	r.insertRoute(rt)
	shards := make([]string, len(rt.blocks))
	for i, b := range rt.blocks {
		shards[i] = b.copies[0].shard.Name()
	}
	r.env.Log.Info("matrix routed", "id", rt.id, "blocks", len(rt.blocks), "shards", shards,
		"nnz", rt.nnz, "fingerprint", rt.fingerprint, "duplicate_of", rt.duplicateOf)
	out := r.routeInfo(rt)
	out.Handles = infos
	r.env.WriteJSON(w, http.StatusCreated, out)
}

// place registers every row block of rt, block i from request(i), and
// returns the shards' documents. Block i walks the ring successors of the
// route's ID rotated by i, failing over down that list on a retryable
// error, so with every shard healthy the blocks land on consecutive
// successors. If a block cannot be placed, the blocks placed before it are
// deleted again.
func (r *Router) place(ctx context.Context, rt *route, request func(i int) server.RegisterRequest) ([]server.MatrixInfo, error) {
	infos := make([]server.MatrixInfo, len(rt.blocks))
	for i := range rt.blocks {
		breq := request(i)
		var err error = errNoShards
		for j, sc := range r.successorClients(rt.id, i) {
			if j > 0 {
				r.metrics.Failovers.Add(1)
			}
			infos[i], err = callShard(r, ctx, "register", sc, func(ctx context.Context) (server.MatrixInfo, error) {
				return sc.Register(ctx, breq)
			})
			if err == nil {
				rt.blocks[i].copies = []shardRef{{shard: sc, remoteID: infos[i].ID}}
				break
			}
			if !Retryable(err) {
				break
			}
		}
		if err != nil {
			r.drop(ctx, rt.placements())
			return nil, err
		}
	}
	return infos, nil
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

// routeInfo renders the route document (placement + usage, no shard calls):
// a whole handle's copies as its primary and replicas, a partitioned
// handle's as its parts.
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
		Partitioned: rt.partitioned(),
		SpMVCalls:   rt.spmvCalls,
		SolveCalls:  rt.solveCalls,
	}
	for _, b := range rt.blocks {
		for ci, c := range b.copies {
			p := Placement{Shard: c.shard.Name(), RemoteID: c.remoteID, RowLo: b.lo, RowHi: b.hi}
			switch {
			case info.Partitioned:
				info.Parts = append(info.Parts, p)
			case ci == 0:
				info.Primary = &p
			default:
				info.Replicas = append(info.Replicas, p)
			}
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

// handleDelete forgets the handle and deletes every copy. The route is
// marked deleted before its copies are listed, so a copy that replication
// or a drain registers afterwards is deleted by install instead.
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
	rt.mu.Lock()
	rt.deleted = true
	rt.mu.Unlock()
	r.drop(req.Context(), rt.placements())
	w.WriteHeader(http.StatusNoContent)
}

// ---- spmv / spmm ----

// handlePanel routes /spmv and /spmm (op names the endpoint): the request
// fans out over the handle's row blocks, one copy of each, and the product
// is gathered. The router converts no float on this path: the body is
// scanned for its shape, the client's bytes go to the shards unchanged, and
// the reply is spliced from the byte spans of the shards' product vectors.
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
		sc, _ := obs.SpanFromContext(req.Context())
		scanStart := time.Now()
		body, _, k, ok := r.env.ReadPanel(w, req, rt.cols)
		if !ok {
			return
		}
		defer func() { wire.PutBuf(body) }() // the reply may move to another buffer
		r.env.WireSpan(sc, "wire.scan", scanStart, len(*body), k)
		requests.Add(1)
		start := time.Now()
		defer func() { seconds.Observe(time.Since(start).Seconds()) }()

		replies, served, err := r.gather(req.Context(), rt, op, *body, k)
		if err != nil {
			r.failShard(w, err)
			return
		}
		// One block answers in its shard's own format; a gather is
		// "distributed".
		tail := wire.Tail{K: replies[0].lay.K, Format: replies[0].lay.Format, ServedBy: served}
		if rt.partitioned() {
			tail.Format = "distributed"
		}
		body = r.replyPanel(w, sc, rt, replies, tail, body)
		r.maybeReplicate(rt)
	}
}

// replyPanel answers a panel request by splicing the shards' product vectors
// (the row blocks' replies in row order) under the router's own tail, and
// releases the replies. The reply is built over the request body when that
// buffer has the room: every shard has answered, so the request's bytes are
// dead. It returns the buffer the caller now owns.
func (r *Router) replyPanel(w http.ResponseWriter, sc obs.SpanContext, rt *route, replies []blockReply, tail wire.Tail, buf *[]byte) *[]byte {
	defer releaseBlocks(replies)
	start := time.Now()
	bodies, lays := make([][]byte, len(replies)), make([]wire.Layout, len(replies))
	size := 256 // the tail
	for i, b := range replies {
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

func releaseBlocks(replies []blockReply) {
	for _, b := range replies {
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

// gather runs a product (op "spmv" or "spmm") over every row block of rt in
// parallel: the same encoded k-vector request (body; it carries the
// progress indicator, if any, so the shard-side selector pipelines advance —
// a distributed solve's loop runs router-side) goes to one copy of each
// block, and each returns its block of the product, handed back as scanned
// bytes in block order with the shard that served it; release them with
// releaseBlocks. The HTTP path splices them into the reply, the solver path
// decodes them into its vector. Every row is summed entirely on one shard,
// so the gathered vectors are bit-identical to the single-process product
// no matter how the rows were cut.
func (r *Router) gather(ctx context.Context, rt *route, op string, body []byte, k int) ([]blockReply, []string, error) {
	replies := make([]blockReply, len(rt.blocks))
	served := make([]string, len(rt.blocks))
	errs := make([]error, len(rt.blocks))
	fetch := func(bi int) {
		b := &rt.blocks[bi]
		reply, ref, err := walk(r, ctx, rt, bi, op, func(ctx context.Context, ref shardRef) (blockReply, error) {
			return panelBlock(ctx, ref.shard, op, ref.remoteID, body, k, b.hi-b.lo)
		})
		if err != nil {
			errs[bi] = fmt.Errorf("block [%d,%d) on %s: %w", b.lo, b.hi, ref.shard.Name(), err)
			return
		}
		replies[bi], served[bi] = reply, ref.shard.Name()
	}
	var wg sync.WaitGroup
	for bi := 1; bi < len(rt.blocks); bi++ {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			fetch(bi)
		}(bi)
	}
	fetch(0)
	wg.Wait()
	if rt.partitioned() {
		r.metrics.PartialFanouts.Add(1)
	}
	for _, err := range errs {
		if err != nil {
			releaseBlocks(replies)
			return nil, nil, err
		}
	}
	return replies, served, nil
}

// ---- replication ----

// maybeReplicate kicks off a background copy of a hot whole handle onto the
// next shard in its placement sequence, up to hotCopies copies. At most one
// attempt is in flight per route.
func (r *Router) maybeReplicate(rt *route) {
	if r.cfg.ReplicateAfter <= 0 || rt.partitioned() {
		return
	}
	rt.mu.Lock()
	hot := rt.spmvCalls >= r.cfg.ReplicateAfter && len(rt.blocks[0].copies) < hotCopies && !rt.replicating
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

// replicate copies a whole handle onto one additional shard. Runs off the
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
	copies := slices.Clone(rt.blocks[0].copies)
	rt.mu.Unlock()
	source := copies[0]
	hosting := func(sc *ShardClient) bool {
		return slices.ContainsFunc(copies, func(c shardRef) bool { return c.shard == sc })
	}

	// Prefer a shard that already hosts an identical matrix through another
	// route: its registry dedups the registration into an alias of the
	// resident copy, so the replica costs the target nothing but a handle.
	prefer := r.aliasTargets(rt)
	var target, fallback *ShardClient
	for _, sc := range r.successorClients(rt.id, 0) {
		if hosting(sc) || !sc.Healthy() {
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
		r.env.Log.Warn("replication export failed", "id", rt.id, "source", source.shard.Name(), "error", err)
		done(false)
		return
	}
	info, err := r.registerExport(ctx, target, exp)
	if err != nil {
		r.env.Log.Warn("replication register failed", "id", rt.id, "target", target.Name(), "error", err)
		done(false)
		return
	}
	if !r.install(ctx, rt, 0, shardRef{shard: target, remoteID: info.ID}, nil) {
		done(false)
		return
	}
	done(true)
	if info.DuplicateOf != "" {
		r.metrics.ReplicaAliases.Add(1)
	}
	r.env.Log.Info("handle replicated", "id", rt.id, "target", target.Name(), "remote_id", info.ID,
		"copies", len(copies)+1, "aliased", info.DuplicateOf != "")
}

// aliasTargets returns the shards hosting, via some other route, a whole
// copy of the same matrix as rt (same structure fingerprint AND value
// digest). Registering rt's replica on one of them dedup-aliases the
// resident arrays instead of storing a second copy.
func (r *Router) aliasTargets(rt *route) map[string]bool {
	out := map[string]bool{}
	if rt.fingerprint == "" || rt.valueDigest == "" {
		return out
	}
	r.mu.Lock()
	others := make([]*route, 0, len(r.routes))
	for _, other := range r.routes {
		if other != rt && !other.partitioned() && other.fingerprint == rt.fingerprint && other.valueDigest == rt.valueDigest {
			others = append(others, other)
		}
	}
	r.mu.Unlock()
	for _, other := range others {
		for _, ref := range other.placements() {
			out[ref.shard.Name()] = true
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
	defer func() { r.metrics.SolveSeconds.Observe(time.Since(start).Seconds()) }()

	if rt.partitioned() {
		r.distSolve(w, req, rt, body)
		return
	}
	resp, ref, err := walk(r, req.Context(), rt, 0, "solve", func(ctx context.Context, ref shardRef) (server.SolveResponse, error) {
		return ref.shard.Solve(ctx, ref.remoteID, body)
	})
	if err != nil {
		r.failShard(w, err)
		return
	}
	rt.mu.Lock()
	rt.solveCalls++
	rt.spmvCalls += int64(resp.SpMVCalls)
	rt.mu.Unlock()
	r.maybeReplicate(rt)
	r.env.WriteJSON(w, http.StatusOK, SolveResponse{SolveResponse: resp, ServedBy: []string{ref.shard.Name()}})
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
	if *body, err = wire.AppendRequest(*body, [][]float64{x}, d.progress); err != nil {
		panic(distPanic{err})
	}
	replies, _, err := d.r.gather(d.ctx, d.rt, "spmv", *body, 1)
	if err != nil {
		panic(distPanic{err})
	}
	defer releaseBlocks(replies)
	lo := 0
	for _, b := range replies {
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
	rt.mu.Unlock()

	// Aggregate the shard-side ledgers: the cross-shard request's selector
	// overheads are the sum over blocks (each block ran its own pipeline),
	// keeping the T_affected split (paid on some shard's request path,
	// hidden as a conversion-cache credit) visible one hop up.
	agg, served := r.aggregateSelector(req.Context(), rt.placements())
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

// aggregateSelector sums the selector stats of the given placements into one
// document and returns the serving shard names.
func (r *Router) aggregateSelector(ctx context.Context, refs []shardRef) (server.SelectorStats, []string) {
	var agg server.SelectorStats
	formats := make([]string, 0, len(refs))
	served := make([]string, 0, len(refs))
	seen := map[string]bool{}
	for _, ref := range refs {
		served = append(served, ref.shard.Name())
		mi, err := callShard(r, ctx, "get", ref.shard, func(ctx context.Context) (server.MatrixInfo, error) {
			return ref.shard.Get(ctx, ref.remoteID)
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

// drainShard moves every row block off sc. A block's copies on sc are
// dropped; if a healthy copy is left it serves on, promoted to primary when
// sc held the primary (no data moves); otherwise the block is exported from
// sc and re-homed on the first healthy shard in the order its registration
// walked. The drained shard stays a member (admin-visible, probed) but owns
// no ring points, so nothing new lands on it.
func (r *Router) drainShard(ctx context.Context, sc *ShardClient) DrainResponse {
	resp := DrainResponse{Shard: sc.Name()}
	r.mu.Lock()
	rts := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		rts = append(rts, rt)
	}
	r.mu.Unlock()
	sort.Slice(rts, func(i, j int) bool { return rts[i].id < rts[j].id })

	var abandoned []shardRef // copies to delete from the drained shard
	for _, rt := range rts {
		for bi := range rt.blocks {
			rt.mu.Lock()
			b := &rt.blocks[bi]
			var kept, gone []shardRef
			for _, c := range b.copies {
				if c.shard == sc {
					gone = append(gone, c)
				} else {
					kept = append(kept, c)
				}
			}
			i := slices.IndexFunc(kept, func(c shardRef) bool { return c.shard.Healthy() })
			if len(gone) > 0 && i >= 0 {
				if b.copies[0].shard == sc {
					kept = slices.Concat(kept[i:i+1], kept[:i], kept[i+1:])
					resp.Promoted++
				}
				b.copies = kept
				abandoned = append(abandoned, gone...)
			}
			rt.mu.Unlock()
			if len(gone) == 0 || i >= 0 {
				continue
			}
			if r.rehome(ctx, rt, bi, gone[0]) {
				resp.Moved++
				r.metrics.Rebalances.Add(1)
				abandoned = append(abandoned, gone...)
			} else {
				resp.Lost = append(resp.Lost, fmt.Sprintf("%s[%d,%d)", rt.id, b.lo, b.hi))
			}
		}
	}
	// Best-effort cleanup on the drained shard; failures are fine (the
	// shard may already be gone).
	r.drop(ctx, abandoned)
	return resp
}

// rehome exports block bi's copy from the shard being drained and registers
// it on the first healthy shard in the order the block's registration
// walked; install then makes it the block's primary in place of the copies
// on the drained shard.
func (r *Router) rehome(ctx context.Context, rt *route, bi int, from shardRef) bool {
	exp, err := callShard(r, ctx, "export", from.shard, func(ctx context.Context) (server.ExportResponse, error) {
		return from.shard.Export(ctx, from.remoteID)
	})
	if err != nil {
		r.env.Log.Warn("drain export failed", "id", rt.id, "block", bi, "from", from.shard.Name(), "error", err)
		return false
	}
	for _, target := range r.successorClients(rt.id, bi) {
		if !target.Healthy() {
			continue
		}
		if info, rerr := r.registerExport(ctx, target, exp); rerr == nil {
			r.install(ctx, rt, bi, shardRef{shard: target, remoteID: info.ID}, from.shard)
			return true
		}
	}
	return false
}
