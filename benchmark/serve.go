package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sparse"
)

// quietLogger keeps the servers' structured logs off the benchmark's output.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))

// httpNode is a handler on a real loopback listener, as ocsd would serve it.
type httpNode struct {
	url  string
	hs   *http.Server
	done chan error
}

func serveLoopback(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop shuts the listener down and waits for the serve goroutine to return.
func (n *httpNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	<-n.done
}

// bootOCSD starts one ocsd the way the daemon ships: async stage 2, trained
// predictors, every other knob at its default.
func (b *bench) bootOCSD(cfg server.Config) (*server.Server, *httpNode, error) {
	cfg.Async, cfg.Preds, cfg.Logger = true, b.preds, quietLogger
	srv := server.New(cfg)
	node, err := serveLoopback(srv.Handler())
	return srv, node, err
}

// client is the load generator's side of the wire. MaxConnsPerHost is the
// hard cap that keeps the generator within its connection budget.
type client struct {
	hc    *http.Client
	conns int
}

func (b *bench) newClient(conns int) *client {
	conns = clampConns(conns, b.nproc)
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 90 * time.Second}, conns: conns}
}

// timed is the timed phase's length, or a share of it.
func (b *bench) timed(share float64) time.Duration {
	return time.Duration(share * b.cfg.seconds * float64(time.Second))
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response; body is nil when it was drained unread.
type reply struct {
	status                int
	body                  []byte
	start, firstByte, end time.Time
}

func (c *client) call(method, url string, body []byte, keep bool) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.firstByte, r.status = time.Now(), resp.StatusCode
	if keep {
		r.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	r.end = time.Now()
	return r, err
}

// postJSON is the set-up path: one request, decoded reply, any non-2xx is an
// error.
func (c *client) postJSON(url string, in, out any) (reply, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return reply{}, err
	}
	r, err := c.call(http.MethodPost, url, body, true)
	if err != nil {
		return r, err
	}
	if r.status/100 != 2 {
		return r, fmt.Errorf("POST %s: HTTP %d: %s", url, r.status, strings.TrimSpace(string(r.body)))
	}
	return r, json.Unmarshal(r.body, out)
}

// opKind indexes the request classes of the serving workloads.
type opKind int

const (
	opSpMV opKind = iota
	opSpMM
	opSolve
	opRegister
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"spmv", "spmm", "solve", "register", "delete"}

// sloSeconds are server.DefaultSLOs()' latency limits per request class;
// delete has no objective and gets the register one.
func sloSeconds() [numKinds]float64 {
	var s [numKinds]float64
	for _, o := range server.DefaultSLOs() {
		for k, name := range kindNames {
			if o.Endpoint == name {
				s[k] = o.LatencyTarget
			}
		}
	}
	s[opDelete] = s[opRegister]
	return s
}

// op is one pre-built request. The body is serialised once in set-up.
type op struct {
	kind   opKind
	sub    string // register: generate or mtx
	method string
	url    func() (string, error)
	body   []byte
	// verify checks a decoded reply. Small replies are always decoded
	// (always); the multi-megabyte vector replies one time in 25.
	verify func(body []byte) error
	always bool
}

// sample is one finished operation as the load generator saw it.
type sample struct {
	kind  opKind
	sub   string
	ms    float64 // from the intended send time in an open loop
	lagMS float64 // how late the generator sent it
	ok    bool
}

const checkEvery = 25

// exec sends op number i and classifies the outcome. intended is the
// scheduled send time in an open loop, the zero time in a closed one.
func (c *client) exec(o *op, i int, intended time.Time, out *outcome) sample {
	s := sample{kind: o.kind, sub: o.sub}
	fail := func(err error) sample {
		out.failMu.Lock()
		out.fail(fmt.Errorf("%s #%d: %w", kindNames[o.kind], i, err))
		out.failMu.Unlock()
		return s
	}
	url, err := o.url()
	if err != nil {
		return fail(err)
	}
	keep := o.always || i%checkEvery == 0
	r, err := c.call(o.method, url, o.body, keep)
	from := r.start
	if !intended.IsZero() {
		from = intended
		s.lagMS = float64(r.start.Sub(intended)) / 1e6
	}
	s.ms = float64(r.end.Sub(from)) / 1e6
	if out.rec != nil && err == nil {
		id := out.rec.add("request", kindNames[o.kind], 0, r.start, r.end)
		out.rec.add("client.roundtrip", "", id, r.start, r.firstByte)
		out.rec.add("client.drain", "", id, r.firstByte, r.end)
	}
	switch {
	case err != nil:
		return fail(err)
	case r.status/100 != 2:
		return fail(fmt.Errorf("HTTP %d", r.status))
	case keep && o.verify != nil:
		if err := o.verify(r.body); err != nil {
			return fail(err)
		}
	}
	s.ok = true
	return s
}

// phase is one timed stretch of load: its samples and how long it took.
type phase struct {
	samples []sample
	elapsed float64 // seconds
}

// ok counts the operations that succeeded.
func (p phase) ok() (n int) {
	for _, s := range p.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// latencies are the successful samples' latencies in ms, one request class
// or all of them (allKinds).
func (p phase) latencies(kind opKind) []float64 {
	var v []float64
	for _, s := range p.samples {
		if s.ok && (kind == allKinds || s.kind == kind) {
			v = append(v, s.ms)
		}
	}
	return v
}

// closedLoop drives conns clients, each sending its next request when the
// previous one completes, for d. Op i is ops[i % len(ops)].
func (c *client) closedLoop(conns int, d time.Duration, ops []*op, out *outcome) phase {
	conns = clampConns(conns, c.conns)
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mine  = make([][]sample, conns)
		start = time.Now()
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				mine[w] = append(mine[w], c.exec(ops[i%len(ops)], i, time.Time{}, out))
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start).Seconds()}
	for _, m := range mine {
		p.samples = append(p.samples, m...)
	}
	return p
}

// fixedSchedule is the open loop's arrival plan: n sends, rate per second.
func fixedSchedule(n int, rate float64) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return s
}

// openLoop sends every op at its scheduled instant whether or not earlier
// requests have returned, over at most conns connections. A request that
// finds every connection busy waits, and that wait is in its latency:
// latency is taken from the intended send time, so a backlog shows.
func (c *client) openLoop(conns int, rate float64, ops []*op, out *outcome) phase {
	conns = clampConns(conns, c.conns)
	var (
		schedule = fixedSchedule(len(ops), rate)
		next     atomic.Int64
		all      = make([]sample, len(ops))
		wg       sync.WaitGroup
		start    = time.Now()
	)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(ops) {
					return
				}
				due := start.Add(schedule[j])
				time.Sleep(time.Until(due))
				all[j] = c.exec(ops[j], j, due, out)
			}
		}()
	}
	wg.Wait()
	return phase{samples: all, elapsed: time.Since(start).Seconds()}
}

// vecCase is one pre-serialised /spmv or /spmm body with the reference
// product and per-row rounding bounds its reply is checked against.
type vecCase struct {
	body  []byte
	ref   [][]float64
	bound [][]float64
}

func newVecCase(a *sparse.CSR, rng *rand.Rand, k int) (vecCase, error) {
	_, cols := a.Dims()
	v := vecCase{}
	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = randVec(rng, cols)
		v.ref = append(v.ref, check.RefSpMV(a, xs[j]))
		v.bound = append(v.bound, check.SpMVBounds(a, xs[j]))
	}
	var err error
	v.body, err = json.Marshal(map[string]any{"x": xs})
	return v, err
}

// verify accepts a reply whose every entry sits inside the rounding bound of
// the sequential reference product.
func (v vecCase) verify(body []byte) error {
	var resp struct {
		Y [][]float64 `json:"y"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Y) != len(v.ref) {
		return fmt.Errorf("reply has %d vectors, want %d", len(resp.Y), len(v.ref))
	}
	for j, y := range resp.Y {
		if len(y) != len(v.ref[j]) {
			return fmt.Errorf("y[%d] has length %d, want %d", j, len(y), len(v.ref[j]))
		}
		for i := range y {
			if d := math.Abs(y[i] - v.ref[j][i]); !(d <= v.bound[j][i]) {
				return fmt.Errorf("y[%d][%d] = %g, reference %g, bound %g", j, i, y[i], v.ref[j][i], v.bound[j][i])
			}
		}
	}
	return nil
}

func fixedURL(u string) func() (string, error) { return func() (string, error) { return u, nil } }

func (v vecCase) op(kind opKind, url string) *op {
	return &op{kind: kind, method: http.MethodPost, url: fixedURL(url), body: v.body, verify: v.verify}
}

// verifySolve is the /solve gate: the reply must say it converged, unless
// the request capped the iterations to make the work fixed.
func verifySolve(wantConverged bool) func([]byte) error {
	return func(body []byte) error {
		var resp server.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if wantConverged && !resp.Converged {
			return fmt.Errorf("solve did not converge in %d iterations (residual %g)", resp.Iterations, resp.Residual)
		}
		if resp.Iterations < 1 {
			return fmt.Errorf("solve reports %d iterations", resp.Iterations)
		}
		return nil
	}
}

// subLatencies are one class's successful raw latencies with the given sub.
func subLatencies(samples []sample, kind opKind, sub string) []float64 {
	var v []float64
	for _, s := range samples {
		if s.ok && s.kind == kind && s.sub == sub {
			v = append(v, s.ms)
		}
	}
	return v
}

// scrape reads a /metrics exposition into name -> value, unlabeled series
// only (histogram _sum and _count included, buckets not).
func (c *client) scrape(base string) (map[string]float64, float64, error) {
	r, err := c.call(http.MethodGet, base+"/metrics", nil, true)
	if err != nil {
		return nil, 0, err
	}
	fams, err := obs.ParseText(string(r.body))
	if err != nil {
		return nil, 0, err
	}
	vals := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				vals[s.Name] = s.Value
			}
		}
	}
	return vals, float64(r.end.Sub(r.start)) / 1e6, nil
}

// memWriter is an in-memory http.ResponseWriter: the direct-handler replay
// measures the handler with no socket under it.
type memWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// handlerLayers replays one body straight into the handler n times and
// splits the median handler time into the server's own compute and queue
// histograms (read as deltas) and the rest, which is decode + encode +
// envelope: the wire cost.
func handlerLayers(srv *server.Server, path string, body []byte, n int, spmm bool, out *outcome) (handlerMS, computeMS, queueMS float64, err error) {
	m := srv.Metrics()
	hist := m.SpMVSeconds
	if spmm {
		hist = m.SpMMSeconds
	}
	c0, q0 := hist.Snapshot(), m.QueueWaitSeconds.Snapshot()
	h := srv.Handler()
	var ms []float64
	for i := 0; i < n; i++ {
		req, rerr := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		w := &memWriter{h: http.Header{}}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		t1 := time.Now()
		out.rec.add("handler.direct", path, 0, t0, t1)
		if w.status/100 != 2 {
			return 0, 0, 0, fmt.Errorf("direct %s: HTTP %d", path, w.status)
		}
		ms = append(ms, float64(t1.Sub(t0))/1e6)
	}
	c1, q1 := hist.Snapshot(), m.QueueWaitSeconds.Snapshot()
	mean := func(a, b obs.HistSnapshot) float64 {
		if b.Count == a.Count {
			return 0
		}
		return 1e3 * (b.Sum - a.Sum) / float64(b.Count-a.Count)
	}
	return median(ms), mean(c0, c1), mean(q0, q1), nil
}

// allKinds selects every request class in phase.latencies.
const allKinds opKind = -1

// setServing fills the metrics every serving workload shares. op_tail_x is
// the /spmv tailP-th percentile over the /spmv median, both of the whole
// phase: the box's mood cancels in a ratio of one request class to itself (it
// does not between two classes: all-request p95 over the /spmv median spread
// by 23%, /spmv p90 over it by 8%). tailP is fixed per workload so that ten
// samples lie beyond it; picked from the sample count it would jump when the
// count crosses a threshold. slo_ok_share is the requests sent that came back
// correct within their endpoint's limit. Latency counts from the intended
// send time in the open loop. No always-CSR twin of a server exists to divide
// by, so speedup_vs_csr is the neutral 1. op_p50_ms, the /spmv median, and
// the other times are detail lines: README.md says why none is bounded.
func (b *bench) setServing(out *outcome, p phase, setupS float64, tailP float64) {
	ok := p.ok()
	slo := sloSeconds()
	var lags []float64
	within := 0
	for _, s := range p.samples {
		lags = append(lags, s.lagMS)
		if s.ok && s.ms <= 1e3*slo[s.kind] {
			within++
		}
	}
	spmv, all := sortedCopy(p.latencies(opSpMV)), sortedCopy(p.latencies(allKinds))
	tailMS := percentile(spmv, tailP)
	out.Attempted += len(p.samples)
	out.e2e.set("setup_s", setupS)
	out.e2e.set("op_tail_x", tailMS/median(spmv))
	out.e2e.set("speedup_vs_csr", 1)
	out.e2e.set("slo_ok_share", float64(within)/float64(max(len(p.samples), 1)))
	out.Detail["op_p50_ms"] = median(spmv)
	out.Detail["ops_per_s"] = float64(ok) / p.elapsed
	out.Detail["op_tail_ms"] = tailMS
	out.Detail["op_tail_percentile"] = tailP
	out.Detail["op_tail_samples_beyond"] = samplesBeyond(len(spmv), tailP)
	out.Detail["req_p50_ms"] = median(all)
	out.Detail["req_p95_ms"] = percentile(all, 95)
	out.Detail["requests"] = len(p.samples)
	out.Detail["elapsed_s"] = p.elapsed
	for k, name := range kindNames {
		if v := p.latencies(opKind(k)); len(v) > 0 {
			out.Detail[name+"_p50_ms"] = median(v)
			out.Detail[name+"_n"] = len(v)
		}
	}
	if !b.cfg.traced {
		return
	}
	l := out.layers
	l.set("bench.requests_sent", float64(len(p.samples)))
	l.set("bench.requests_ok", float64(ok))
	l.set("bench.loadgen_lag_p99_ms", percentile(sortedCopy(lags), 99))
	l.set("bench.op_p50_ms", median(spmv))
	l.set("bench.ops_per_s", float64(ok)/p.elapsed)
	l.set("bench.op_tail_ms", tailMS)
	l.set("bench.req_p50_ms", median(all))
	l.set("bench.req_p95_ms", percentile(all, 95))
	l.set("bench.spmm_p50_ms", median(p.latencies(opSpMM)))
	l.set("bench.solve_req_p50_ms", median(p.latencies(opSolve)))
	l.set("bench.register_p50_ms", median(p.latencies(opRegister)))
}

// serverLayers reads the counters one ocsd exports and replays one body of
// each vector endpoint into the handler directly.
func (b *bench) serverLayers(out *outcome, cl *client, srv *server.Server, node *httpNode, id string, spmv, spmm vecCase, loopbackSpMVMS float64) error {
	l := out.layers
	const reps = 15
	hMS, cMS, qMS, err := handlerLayers(srv, "/v1/matrices/"+id+"/spmv", spmv.body, reps, false, out)
	if err != nil {
		return err
	}
	l.set("server.handler_ms.spmv", hMS)
	l.set("server.compute_ms.spmv", cMS)
	l.set("server.queue_wait_ms", qMS)
	l.set("server.wire_ms.spmv", hMS-cMS-qMS)
	l.set("server.wire_share.spmv", (hMS-cMS-qMS)/hMS)
	l.set("server.http_overhead_ms.spmv", loopbackSpMVMS-hMS)
	hMS, cMS, qMS, err = handlerLayers(srv, "/v1/matrices/"+id+"/spmm", spmm.body, reps, true, out)
	if err != nil {
		return err
	}
	l.set("server.handler_ms.spmm", hMS)
	l.set("server.wire_ms.spmm", hMS-cMS-qMS)
	vals, scrapeMS, err := cl.scrape(node.url)
	if err != nil {
		return err
	}
	l.set("obs.metrics_scrape_ms", scrapeMS)
	m := srv.Metrics()
	l.set("server.shed_total", float64(m.QueueRejected.Load()))
	l.set("server.registry.dedup_hits", float64(m.DedupHits.Load()))
	l.set("server.registry.evictions", float64(m.Evictions.Load()))
	hits, misses := vals["ocsd_convcache_hits_total"], vals["ocsd_convcache_misses_total"]
	l.set("convcache.hits", hits)
	l.set("convcache.misses", misses)
	if hits+misses > 0 {
		l.set("convcache.hit_share", hits/(hits+misses))
	}
	l.set("core.conversions", float64(m.Conversions.Load()))
	l.set("core.stage2_runs", float64(m.Conversions.Load()+m.ConversionsAvoided.Load()))
	return nil
}

// serveHot is one ocsd, one handle, nproc closed-loop clients: the read path.
func (b *bench) serveHot() (*outcome, error) {
	out := b.newOutcome("serve_hot")
	setup := time.Now()
	rows := scaled(20_000, b.cfg.scale)
	spec := server.GenerateSpec{Family: "uniform", Size: rows, Degree: min(200, rows/2), Seed: b.cfg.seed}
	a, err := matgen.Generate(matgen.Spec{Family: matgen.FamUniformRows, Size: spec.Size, Degree: spec.Degree, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	out.WorkingSetBytes = a.Bytes()
	srv, node, err := b.bootOCSD(server.Config{})
	if err != nil {
		return nil, err
	}
	defer node.stop()
	cl := b.newClient(b.nproc)
	defer cl.close()

	var info server.MatrixInfo
	if _, err := cl.postJSON(node.url+"/v1/matrices", server.RegisterRequest{Name: "hot", Generate: &spec}, &info); err != nil {
		return nil, err
	}
	if info.Fingerprint != a.Fingerprint() || info.ValueDigest != a.ValueDigest() {
		return nil, fmt.Errorf("server generated a different matrix than the local reference copy")
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	base := node.url + "/v1/matrices/" + info.ID
	var spmvCases, spmmCases []vecCase
	for i := 0; i < 4; i++ {
		v, err := newVecCase(a, rng, 1)
		if err != nil {
			return nil, err
		}
		spmvCases = append(spmvCases, v)
	}
	for i := 0; i < 2; i++ {
		v, err := newVecCase(a, rng, 4)
		if err != nil {
			return nil, err
		}
		spmmCases = append(spmmCases, v)
	}
	// Mix 4 /spmv : 1 /spmm, drawn by the seed. No progress field is ever
	// sent, so the handle stays on CSR and compute is the same every run.
	ops := make([]*op, 1000)
	for i := range ops {
		if rng.Intn(5) == 0 {
			ops[i] = spmmCases[rng.Intn(len(spmmCases))].op(opSpMM, base+"/spmm")
		} else {
			ops[i] = spmvCases[rng.Intn(len(spmvCases))].op(opSpMV, base+"/spmv")
		}
	}
	warm := b.newOutcome("warm-up")
	for i, o := range append(ops[:8:8], spmmCases[0].op(opSpMM, base+"/spmm")) {
		if s := cl.exec(o, i*checkEvery, time.Time{}, warm); !s.ok {
			return nil, fmt.Errorf("warm-up request failed: %v", warm.Failures)
		}
	}
	setupS := b.endSetup(setup)

	p := cl.closedLoop(b.nproc, b.timed(1), ops, out)
	b.setServing(out, p, setupS, 95)
	if !b.cfg.traced {
		return out, nil
	}
	// One client on the same handle: what a freed lock could buy shows as
	// the ratio of the two throughputs.
	one := cl.closedLoop(1, b.timed(0.25), ops, out)
	out.Attempted += len(one.samples)
	out.layers.set("server.conc_scaling", (float64(p.ok())/p.elapsed)/(float64(one.ok())/one.elapsed))
	return out, b.serverLayers(out, cl, srv, node, info.ID, spmvCases[0], spmmCases[0], median(one.latencies(opSpMV)))
}
