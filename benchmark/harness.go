package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what every workload reports untraced. The driver's contract
// wants every workload to report every end-to-end metric, no value that can
// be 0, no bound above 25% and no metric that spreads by more than its bound
// (README.md quotes it). So the issue's fourteen per-workload names are not
// declared as they stand: the set below is what has a meaning on every
// workload (README.md says which) and holds its bound on this box, which no
// time in milliseconds does. Those are detail lines of every run and bench.*
// in the traced one. failed_share is the result's own failed / attempted
// fields; a failure also lowers slo_ok_share. README.md's spread table is
// where the bounds come from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_tail_x", "x", "lower", 0.25},
	{"speedup_vs_csr", "x", "higher", 0.25},
	{"slo_ok_share", "share", "higher", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// kernelFormats is the kernel panel's <f> axis.
var kernelFormats = []string{"csr", "ell", "sell", "jds", "hyb", "dia", "csr5", "bsr"}

// spmmFormats are the formats with a fused SpMM panel kernel.
var spmmFormats = []string{"csr", "ell", "sell", "bsr", "jds"}

// perLayer is what a traced run reports. A workload that does not exercise a
// layer reports 0 for its counters; the micro-probes run in every traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, f := range kernelFormats {
		add("sparse.spmv."+f+".ns_per_nnz", "ns", "lower")
	}
	add("sparse.spmv.csr.serial_ns_per_nnz", "ns", "lower")
	add("sparse.triad_gbps", "GB/s", "higher")
	add("sparse.spmv.csr.gbps_computed", "GB/s", "higher")
	add("sparse.spmv.csr.roofline_frac", "share", "higher")
	for _, f := range kernelFormats[1:] {
		add("sparse.convert."+f+".spmv_equiv", "spmv", "lower")
	}
	for _, f := range spmmFormats {
		add("sparse.spmm."+f+".k4_speedup_vs_cols", "x", "higher")
	}
	add("sparse.fingerprint_ns_per_nnz", "ns", "lower")
	add("vec.dot_gbps", "GB/s", "higher")
	add("vec.axpy_gbps", "GB/s", "higher")
	add("parallel.dispatch_us", "us", "lower")
	add("parallel.spmv_speedup", "x", "higher")
	add("features.extract_ns_per_nnz", "ns", "lower")
	add("features.extract_spmv_equiv", "spmv", "lower")
	add("arima.tripcount_us", "us", "lower")
	add("gbt.predict_us", "us", "lower")
	add("core.decide_us", "us", "lower")
	add("core.stage2_runs", "count", "lower")
	add("core.conversions", "count", "lower")
	add("core.overhead_paid_s", "s", "lower")
	add("core.overhead_hidden_s", "s", "lower")
	add("core.overhead_share", "share", "lower")
	add("core.regret_vs_oracle", "x", "lower")
	add("core.adaptive_overhead_ns", "ns", "lower")
	add("core.safe_overhead_ns", "ns", "lower")
	add("trainer.collect_s", "s", "lower")
	add("trainer.train_s", "s", "lower")
	add("apps.iterations", "count", "lower")
	add("apps.spmv_calls", "count", "lower")
	add("apps.spmv_busy_s", "s", "lower")
	add("apps.spmv_share", "share", "lower")
	add("mmio.read_mb_per_s", "MB/s", "higher")
	add("mmio.write_mb_per_s", "MB/s", "higher")
	add("matgen.generate_ns_per_nnz", "ns", "lower")
	add("server.handler_ms.spmv", "ms", "lower")
	add("server.handler_ms.spmm", "ms", "lower")
	add("server.http_overhead_ms.spmv", "ms", "lower")
	add("server.compute_ms.spmv", "ms", "lower")
	add("server.queue_wait_ms", "ms", "lower")
	add("server.wire_ms.spmv", "ms", "lower")
	add("server.wire_ms.spmm", "ms", "lower")
	add("server.wire_share.spmv", "share", "lower")
	add("server.register_ms.generate", "ms", "lower")
	add("server.register_ms.mtx", "ms", "lower")
	add("server.shed_total", "count", "lower")
	add("server.registry.dedup_hits", "count", "higher")
	add("server.registry.evictions", "count", "lower")
	add("server.conc_scaling", "x", "higher")
	add("convcache.hits", "count", "higher")
	add("convcache.misses", "count", "lower")
	add("convcache.hit_share", "share", "higher")
	add("convcache.lookup_ns", "ns", "lower")
	add("convcache.publish_ns", "ns", "lower")
	add("cluster.route_overhead_ms.spmv", "ms", "lower")
	add("cluster.route_overhead_ms.spmm", "ms", "lower")
	add("cluster.parts", "count", "lower")
	add("cluster.partition_ms", "ms", "lower")
	add("cluster.ring_lookup_ns", "ns", "lower")
	add("cluster.register_ms", "ms", "lower")
	add("cluster.shard_rpc_ms", "ms", "lower")
	add("cluster.failovers", "count", "lower")
	add("obs.journal_append_ns", "ns", "lower")
	add("obs.hist_observe_ns", "ns", "lower")
	add("obs.span_record_ns", "ns", "lower")
	add("obs.metrics_scrape_ms", "ms", "lower")
	add("bench.requests_sent", "count", "higher")
	add("bench.requests_ok", "count", "higher")
	add("bench.loadgen_lag_p99_ms", "ms", "lower")
	add("bench.trace_overhead_share", "share", "lower")
	add("bench.working_set_mb", "MB", "lower")
	// The issue's times and rates, as measured. They cannot hold a bound on
	// this box (README.md) or exist on some workloads only, so they ride the
	// traced run, unbounded; 0 where the workload has no such operation.
	add("bench.op_p50_ms", "ms", "lower")
	add("bench.csr_solve_s", "s", "lower")
	add("bench.ops_per_s", "1/s", "higher")
	add("bench.op_tail_ms", "ms", "lower")
	add("bench.spmm_p50_ms", "ms", "lower")
	add("bench.req_p50_ms", "ms", "lower")
	add("bench.req_p95_ms", "ms", "lower")
	add("bench.solve_req_p50_ms", "ms", "lower")
	add("bench.register_p50_ms", "ms", "lower")
	add("bench.failed_share", "share", "lower")
	return d
}

// metric is one emitted value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a fixed list of definitions: a name that
// is not in the list is a bug in the benchmark, not a new metric.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = v
}

func (m *metricSet) add(name string, v float64) { m.set(name, m.vals[name]+v) }

// emit returns every declared metric, 0 for the ones the workload left unset.
func (m *metricSet) emit() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for name, d := range m.defs {
		out[name] = metric{Value: m.vals[name], Unit: d.Unit}
	}
	return out
}

// checkProcs enforces ROADMAP item (a): a parallel record taken with more Ps
// than cores measures the scheduler, not the kernels.
func checkProcs(gomaxprocs, numCPU int) error {
	if gomaxprocs > numCPU {
		return fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d: refusing to record oversubscribed numbers", gomaxprocs, numCPU)
	}
	return nil
}

// clampConns caps a load generator's connection count at the core count, so
// the generator never competes with the server under test for more cores
// than a real co-located client could.
func clampConns(want, nproc int) int {
	if want < 1 {
		want = 1
	}
	if want > nproc {
		return nproc
	}
	return want
}

// percentile returns the exact p-th percentile (nearest-rank, p in (0,100])
// of an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := ceilRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ceilRank is ceil(p% of n), forgiving the last bit of p/100*n: 99.9% of
// 10000 is 9990, not the 9991 that 9990.000000000002 rounds up to.
func ceilRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// samplesBeyond is how many of n samples lie above the p-th percentile. A
// workload's tail percentile is chosen so that at least ten do.
func samplesBeyond(n int, p float64) int { return n - ceilRank(p, n) }

// resetPeakRSS returns freed heap to the OS and resets VmHWM. Where the
// kernel refuses the write the peak simply stays.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's high-water resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kb, _ := parseStatusKB(string(b), "VmHWM:")
	return float64(kb) / 1024
}

func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New("benchmark: " + key + " not in status")
}

// environment is recorded beside every result set so two sets can be told
// apart when they disagree.
type environment struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model"`
	L2Bytes       int64  `json:"l2_bytes"`
	LLCBytes      int64  `json:"llc_bytes_reported"`
	GoVersion     string `json:"go_version"`
	KernelVariant string `json:"kernel_variant"`
	GitRevision   string `json:"git_revision"`
}

func readEnvironment() environment {
	e := environment{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		KernelVariant: sparse.KernelVariant(),
		GitRevision:   gitRevision(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		size, _ := os.ReadFile(dir + "size")
		n := parseCacheSize(strings.TrimSpace(string(size)))
		switch strings.TrimSpace(string(level)) {
		case "2":
			e.L2Bytes = n
		case "3", "4":
			e.LLCBytes = n
		}
	}
	return e
}

func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// gitRevision reads the checked-out commit without running git: the driver's
// checkout is not a repository, and then the answer is "unknown".
func gitRevision() string {
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		ref, ok := strings.CutPrefix(h, "ref: ")
		if !ok {
			return h
		}
		if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unknown"
}
