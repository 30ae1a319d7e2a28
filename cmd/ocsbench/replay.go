// Command ocsbench is the open-loop traffic-replay client for a live ocsd or
// ocsrouter. Its one mode is replay:
//
//	go run ./cmd/ocsbench replay -target http://localhost:8080 \
//	    -rate 50 -duration 10s -mix spmv=6,spmm=2,solve=1,register=1
//
// (Kernel, conversion and end-to-end timings are recorded by
// `bash benchmark/run.sh` and the root `go test -bench` suite, not here.)
//
// Open-loop means arrivals follow a fixed schedule (Poisson or fixed-rate)
// computed before the run: a slow server does not slow the arrival process
// down, it builds a backlog — exactly what production traffic does. The
// recorded latency of every request is measured from its *intended* send
// time, not the instant a connection got around to sending it, so the
// report is free of coordinated omission: a stalled server charges its
// stall to every request it delayed.
//
// Each request carries no trace header; the target mints a trace and echoes
// it in the OCS-Trace response header, which the harness keeps. After the
// run it pulls the span trees of the slowest requests back out of the
// target (/v1/trace/{id} on a router, /v1/spans/{id} on a shard) and
// reports a per-stage breakdown of where the slow tail spends its time.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// replaySample is one issued request.
type replaySample struct {
	op      string
	seconds float64 // intended-send-to-completion (coordinated-omission-safe)
	trace   string
	failed  bool
}

// replayEngine drives the open-loop schedule. now/sleep/do are injectable
// so the coordinated-omission accounting is testable against a scripted
// clock; production wires time.Now, time.Sleep and an HTTP client.
type replayEngine struct {
	now   func() time.Time
	sleep func(time.Duration)
	do    func(i int, op string) (trace string, err error)
	ops   []string
}

// schedule computes the arrival offsets for n requests: "fixed" spaces them
// exactly 1/rate apart, "poisson" draws exponential inter-arrival gaps with
// mean 1/rate from the seeded source (memoryless arrivals — bursts and lulls
// included, the way independent clients actually arrive).
func schedule(arrival string, rate float64, n int, seed int64) ([]time.Duration, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("rate must be positive, got %g", rate)
	}
	offsets := make([]time.Duration, n)
	switch arrival {
	case "fixed":
		for i := range offsets {
			offsets[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
	case "poisson":
		rng := rand.New(rand.NewSource(seed))
		at := 0.0
		for i := range offsets {
			offsets[i] = time.Duration(at * float64(time.Second))
			at += rng.ExpFloat64() / rate
		}
	default:
		return nil, fmt.Errorf("unknown arrival %q (want poisson or fixed)", arrival)
	}
	return offsets, nil
}

// run issues the scheduled requests over conns concurrent connections.
// Workers claim schedule slots in order; a worker behind schedule issues
// immediately and the sample's latency — measured from the slot's intended
// time — absorbs the backlog delay.
func (e *replayEngine) run(offsets []time.Duration, conns int) []replaySample {
	if conns <= 0 {
		conns = 1
	}
	samples := make([]replaySample, len(offsets))
	var next atomic.Int64
	start := e.now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(offsets) {
					return
				}
				intended := start.Add(offsets[i])
				if d := intended.Sub(e.now()); d > 0 {
					e.sleep(d)
				}
				op := e.ops[i]
				trace, err := e.do(i, op)
				samples[i] = replaySample{
					op:      op,
					seconds: e.now().Sub(intended).Seconds(),
					trace:   trace,
					failed:  err != nil,
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// mixEntry is one endpoint weight from the -mix flag.
type mixEntry struct {
	op     string
	weight int
}

// parseMix parses "spmv=8,solve=1,register=1".
func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, ws, ok := strings.Cut(part, "=")
		w := 1
		if ok {
			v, err := strconv.Atoi(ws)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
			w = v
		}
		switch op {
		case "spmv", "spmm", "solve", "register":
		default:
			return nil, fmt.Errorf("unknown mix op %q (want spmv, spmm, solve or register)", op)
		}
		if w > 0 {
			mix = append(mix, mixEntry{op: op, weight: w})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("mix selects no operations")
	}
	return mix, nil
}

// assignOps draws each schedule slot's operation from the weighted mix with
// the seeded source, so the interleaving is reproducible.
func assignOps(mix []mixEntry, n int, seed int64) []string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	rng := rand.New(rand.NewSource(seed + 1))
	ops := make([]string, n)
	for i := range ops {
		pick := rng.Intn(total)
		for _, m := range mix {
			if pick < m.weight {
				ops[i] = m.op
				break
			}
			pick -= m.weight
		}
	}
	return ops
}

// percentile returns the exact q-quantile (0 < q <= 1) of sorted ascending
// samples: the smallest value with at least ceil(q*n) samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SpanStat aggregates one span name across the slow-tail traces.
type SpanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// EndpointReport is the per-endpoint slice of the replay report.
type EndpointReport struct {
	Endpoint string `json:"endpoint"`
	Count    int    `json:"count"`
	Errors   int    `json:"errors"`
	// Latency quantiles in seconds, coordinated-omission-safe (measured
	// from intended send time).
	P50        float64 `json:"p50_seconds"`
	P99        float64 `json:"p99_seconds"`
	P999       float64 `json:"p999_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	// SLO accounting: the latency target the endpoint was scored against
	// and the burn rate per window (1.0 = exactly consuming error budget).
	SLOTargetSeconds float64            `json:"slo_target_seconds"`
	Burn             map[string]float64 `json:"burn,omitempty"`
	// SlowSpans is the per-stage time breakdown aggregated over the traces
	// of the slowest percentile (>= p99), pulled back from the target.
	SlowestTrace string     `json:"slowest_trace,omitempty"`
	SlowSpans    []SpanStat `json:"slow_spans,omitempty"`
}

// ReplayReport is the BENCH_replay.json document.
type ReplayReport struct {
	Target          string           `json:"target"`
	Arrival         string           `json:"arrival"`
	Rate            float64          `json:"rate"`
	Conns           int              `json:"conns"`
	Seed            int64            `json:"seed"`
	DurationSeconds float64          `json:"duration_seconds"`
	Generated       string           `json:"generated"`
	Requests        int              `json:"requests"`
	Errors          int              `json:"errors"`
	Endpoints       []EndpointReport `json:"endpoints"`
}

// replayObjectives mirror the serving defaults: interactive endpoints tight,
// solves roomy. The harness scores its own observations against these — the
// target's burn gauges are scraped separately (see -metrics-out and CI).
func replayObjectives() []obs.Objective {
	return []obs.Objective{
		{Endpoint: "register", LatencyTarget: 2, Target: 0.99},
		{Endpoint: "spmv", LatencyTarget: 0.25, Target: 0.99},
		{Endpoint: "spmm", LatencyTarget: 1, Target: 0.99},
		{Endpoint: "solve", LatencyTarget: 5, Target: 0.95},
	}
}

// buildReport aggregates the samples into the report document.
func buildReport(samples []replaySample, slo *obs.SLOTracker) []EndpointReport {
	byOp := map[string][]replaySample{}
	for _, s := range samples {
		byOp[s.op] = append(byOp[s.op], s)
	}
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var out []EndpointReport
	for _, op := range ops {
		ss := byOp[op]
		lat := make([]float64, 0, len(ss))
		errs := 0
		maxSec := 0.0
		for _, s := range ss {
			lat = append(lat, s.seconds)
			if s.failed {
				errs++
			}
			if s.seconds > maxSec {
				maxSec = s.seconds
			}
		}
		sort.Float64s(lat)
		er := EndpointReport{
			Endpoint:   op,
			Count:      len(ss),
			Errors:     errs,
			P50:        percentile(lat, 0.50),
			P99:        percentile(lat, 0.99),
			P999:       percentile(lat, 0.999),
			MaxSeconds: maxSec,
		}
		if obj, ok := slo.Objective(op); ok {
			er.SLOTargetSeconds = obj.LatencyTarget
			er.Burn = map[string]float64{}
			for _, w := range obs.DefaultSLOWindows {
				burn, _, _ := slo.Burn(op, w)
				er.Burn[windowName(w)] = burn
			}
		}
		out = append(out, er)
	}
	return out
}

// windowName renders a window the same way the burn-rate gauge labels do.
func windowName(w time.Duration) string {
	if w%time.Hour == 0 {
		return fmt.Sprintf("%dh", w/time.Hour)
	}
	return fmt.Sprintf("%dm", w/time.Minute)
}

func main() {
	if len(os.Args) < 2 || os.Args[1] != "replay" {
		fmt.Fprintln(os.Stderr, "usage: ocsbench replay -target URL [flags]  (ocsbench replay -h lists them)")
		os.Exit(2)
	}
	replayMain(os.Args[2:])
}

// replayMain is the replay subcommand entry point.
func replayMain(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	target := fs.String("target", "", "base URL of a running ocsd or ocsrouter (required)")
	rate := fs.Float64("rate", 20, "mean arrival rate, requests/second")
	duration := fs.Duration("duration", 10*time.Second, "replay length")
	conns := fs.Int("conns", 4, "concurrent connections issuing the schedule")
	arrival := fs.String("arrival", "poisson", "arrival process: poisson or fixed")
	seed := fs.Int64("seed", 1, "seed for the arrival schedule and op mix")
	mixStr := fs.String("mix", "spmv=6,spmm=2,solve=1,register=1", "endpoint mix as op=weight[,op=weight...]")
	size := fs.Int("size", 400, "dimension of the pre-registered workload matrix")
	degree := fs.Int("degree", 8, "row degree of the workload matrix")
	out := fs.String("out", "BENCH_replay.json", "output JSON path (empty = don't write)")
	metricsOut := fs.String("metrics-out", "", "also write the harness-side SLO gauges as Prometheus text (promcheck-compatible)")
	_ = fs.Parse(args)
	if *target == "" {
		log.Fatal("replay: -target is required")
	}
	mix, err := parseMix(*mixStr)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	count := int(*rate * duration.Seconds())
	if count < 1 {
		count = 1
	}
	offsets, err := schedule(*arrival, *rate, count, *seed)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}

	cl := &replayClient{base: strings.TrimSuffix(*target, "/"), hc: &http.Client{Timeout: 2 * time.Minute}, size: *size, degree: *degree, seed: *seed}
	if err := cl.setup(); err != nil {
		log.Fatalf("replay: setting up workload matrix: %v", err)
	}

	slo := obs.NewSLOTracker(replayObjectives(), nil, nil)
	eng := &replayEngine{
		now:   time.Now,
		sleep: time.Sleep,
		do:    cl.issue,
		ops:   assignOps(mix, count, *seed),
	}
	fmt.Printf("replay: %d requests at %g/s (%s arrivals, %d conns) against %s\n",
		count, *rate, *arrival, *conns, *target)
	t0 := time.Now()
	samples := eng.run(offsets, *conns)
	elapsed := time.Since(t0).Seconds()

	errors := 0
	for _, s := range samples {
		slo.Record(s.op, s.seconds, s.failed)
		if s.failed {
			errors++
		}
	}
	report := ReplayReport{
		Target:          *target,
		Arrival:         *arrival,
		Rate:            *rate,
		Conns:           *conns,
		Seed:            *seed,
		DurationSeconds: elapsed,
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Requests:        len(samples),
		Errors:          errors,
		Endpoints:       buildReport(samples, slo),
	}
	attachSlowSpans(&report, samples, cl)

	for _, ep := range report.Endpoints {
		fmt.Printf("replay %-9s n=%-5d err=%-3d p50=%8.2fms p99=%8.2fms p999=%8.2fms burn(5m)=%.3f\n",
			ep.Endpoint, ep.Count, ep.Errors, 1e3*ep.P50, 1e3*ep.P99, 1e3*ep.P999, ep.Burn["5m"])
		for _, sp := range ep.SlowSpans {
			fmt.Printf("    slow-tail span %-24s %3dx %10.3fms total\n", sp.Name, sp.Count, 1e3*sp.Seconds)
		}
	}

	if *out != "" {
		data, merr := json.MarshalIndent(&report, "", "  ")
		if merr != nil {
			log.Fatal(merr)
		}
		if werr := os.WriteFile(*out, append(data, '\n'), 0o644); werr != nil {
			log.Fatal(werr)
		}
		fmt.Printf("wrote replay report to %s\n", *out)
	}
	if *metricsOut != "" {
		var sb strings.Builder
		if werr := obs.WriteText(&sb, slo.Families("ocsbench_replay")); werr != nil {
			log.Fatal(werr)
		}
		if werr := os.WriteFile(*metricsOut, []byte(sb.String()), 0o644); werr != nil {
			log.Fatal(werr)
		}
		fmt.Printf("wrote replay SLO gauges to %s\n", *metricsOut)
	}
}

// attachSlowSpans pulls the span trees of each endpoint's slowest-percentile
// requests back from the target and aggregates a per-stage breakdown.
func attachSlowSpans(report *ReplayReport, samples []replaySample, cl *replayClient) {
	for ei := range report.Endpoints {
		ep := &report.Endpoints[ei]
		var slow []replaySample
		for _, s := range samples {
			if s.op == ep.Endpoint && s.trace != "" && s.seconds >= ep.P99 {
				slow = append(slow, s)
			}
		}
		sort.Slice(slow, func(i, j int) bool { return slow[i].seconds > slow[j].seconds })
		if len(slow) > 8 {
			slow = slow[:8] // bound the post-run fetches; log nothing dropped silently
		}
		agg := map[string]*SpanStat{}
		for i, s := range slow {
			if i == 0 {
				ep.SlowestTrace = s.trace
			}
			for _, sp := range cl.fetchSpans(s.trace) {
				st, ok := agg[sp.Name]
				if !ok {
					st = &SpanStat{Name: sp.Name}
					agg[sp.Name] = st
				}
				st.Count++
				st.Seconds += sp.Seconds
			}
		}
		for _, st := range agg {
			ep.SlowSpans = append(ep.SlowSpans, *st)
		}
		sort.Slice(ep.SlowSpans, func(i, j int) bool { return ep.SlowSpans[i].Seconds > ep.SlowSpans[j].Seconds })
	}
}

// replayClient issues the actual HTTP requests against the target.
type replayClient struct {
	base   string
	hc     *http.Client
	size   int
	degree int
	seed   int64

	handle string // the pre-registered workload matrix
	cols   int
	x      []float64
}

// registerBody is the registration document for the workload matrices.
func (c *replayClient) registerBody(name string, seed int64) map[string]any {
	return map[string]any{
		"name": name,
		"generate": map[string]any{
			"family": "spd", "size": c.size, "degree": c.degree, "seed": seed,
		},
	}
}

// setup registers the workload matrix every spmv/solve in the mix targets.
func (c *replayClient) setup() error {
	var info struct {
		ID   string `json:"id"`
		Cols int    `json:"cols"`
	}
	if _, err := c.post("/v1/matrices", c.registerBody("replay-workload", c.seed), &info); err != nil {
		return err
	}
	c.handle = info.ID
	c.cols = info.Cols
	c.x = make([]float64, c.cols)
	for i := range c.x {
		c.x[i] = 1
	}
	return nil
}

// issue performs one mixed operation and returns the trace ID the target
// echoed back.
func (c *replayClient) issue(i int, op string) (string, error) {
	switch op {
	case "register":
		// Distinct seeds keep registrations from being structure duplicates.
		return c.post("/v1/matrices", c.registerBody(fmt.Sprintf("replay-%d", i), c.seed+int64(i)+100), nil)
	case "spmv":
		return c.post("/v1/matrices/"+c.handle+"/spmv", map[string]any{"x": [][]float64{c.x}}, nil)
	case "spmm":
		// A blocked 4-vector product: the batched counterpart of the spmv op.
		xs := make([][]float64, 4)
		for j := range xs {
			xs[j] = c.x
		}
		return c.post("/v1/matrices/"+c.handle+"/spmm", map[string]any{"x": xs}, nil)
	case "solve":
		return c.post("/v1/matrices/"+c.handle+"/solve", map[string]any{
			"app": "jacobi", "tol": 1e-10, "max_iters": 40,
		}, nil)
	default:
		return "", fmt.Errorf("unknown op %q", op)
	}
}

// post issues one JSON request, decodes the body into out (when non-nil) and
// returns the echoed OCS-Trace trace ID.
func (c *replayClient) post(path string, body any, out any) (string, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	trace := ""
	if sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader)); ok {
		trace = sc.Trace.String()
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return trace, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		return trace, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return trace, nil
}

// fetchSpans retrieves a trace's spans from the target: /v1/trace/{id} on a
// router (assembled tree, flattened), /v1/spans/{id} on a shard. Best-effort
// — a missing trace yields nothing.
func (c *replayClient) fetchSpans(trace string) []obs.Span {
	var tree struct {
		Tree []*obs.SpanNode `json:"tree"`
	}
	if err := c.getJSON("/v1/trace/"+trace, &tree); err == nil && len(tree.Tree) > 0 {
		var spans []obs.Span
		var rec func(ns []*obs.SpanNode)
		rec = func(ns []*obs.SpanNode) {
			for _, n := range ns {
				spans = append(spans, n.Span)
				rec(n.Children)
			}
		}
		rec(tree.Tree)
		return spans
	}
	var local struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := c.getJSON("/v1/spans/"+trace, &local); err == nil {
		return local.Spans
	}
	return nil
}

func (c *replayClient) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
