package cluster

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics is the router's telemetry: request counters, the replica/failover
// accounting the load balancer produces, and per-shard latency histograms
// (one labeled series per shard in a single Prometheus family).
type Metrics struct {
	RequestsTotal    atomic.Int64 // requests routed to /v1 handlers
	RequestErrors    atomic.Int64 // requests answered 4xx/5xx
	RegisterRequests atomic.Int64
	SpMMRequests     atomic.Int64
	SolveRequests    atomic.Int64

	// Placement/balancing outcomes.
	PrimaryHits     atomic.Int64 // row-block reads served by the block's primary copy
	Failovers       atomic.Int64 // switches to a different copy or shard after a retryable failure
	Replications    atomic.Int64 // hot handles copied onto an additional shard
	ReplicaAliases  atomic.Int64 // replications the target shard dedup-aliased (identical matrix already resident)
	Rebalances      atomic.Int64 // row blocks re-homed off a draining shard
	PartitionedRegs atomic.Int64 // registrations that row-partitioned

	// Router-side end-to-end latency (includes shard round trips).
	SpMVSeconds  *obs.Histogram
	SpMMSeconds  *obs.Histogram
	SolveSeconds *obs.Histogram

	mu sync.Mutex
	// shardSeconds times individual shard round trips, keyed by shard name;
	// shardErrors counts failed round trips per shard.
	shardSeconds map[string]*obs.Histogram
	shardErrors  map[string]*atomic.Int64
}

// NewMetrics builds the router telemetry set.
func NewMetrics() *Metrics {
	return &Metrics{
		SpMVSeconds:  obs.NewLatencyHistogram(),
		SpMMSeconds:  obs.NewLatencyHistogram(),
		SolveSeconds: obs.NewLatencyHistogram(),
		shardSeconds: make(map[string]*obs.Histogram),
		shardErrors:  make(map[string]*atomic.Int64),
	}
}

// ObserveShard records one shard round trip: its wall time and whether it
// failed. Series are created lazily the first time a shard is observed.
func (m *Metrics) ObserveShard(shard string, seconds float64, failed bool) {
	m.mu.Lock()
	h, ok := m.shardSeconds[shard]
	if !ok {
		h = obs.NewLatencyHistogram()
		m.shardSeconds[shard] = h
		m.shardErrors[shard] = &atomic.Int64{}
	}
	e := m.shardErrors[shard]
	m.mu.Unlock()
	h.Observe(seconds)
	if failed {
		e.Add(1)
	}
}

// Families assembles the Prometheus families, deterministic order. shards
// supplies the current membership so the failure gauges appear even before
// a shard has served a request.
func (m *Metrics) Families(shards []*ShardClient) []obs.Family {
	fams := []obs.Family{
		obs.ScalarFamily("ocsrouter_requests_total", "Requests routed to /v1 handlers.", obs.KindCounter, float64(m.RequestsTotal.Load())),
		obs.ScalarFamily("ocsrouter_request_errors_total", "Requests answered with a 4xx/5xx status.", obs.KindCounter, float64(m.RequestErrors.Load())),
		obs.ScalarFamily("ocsrouter_register_requests_total", "Matrix registrations routed.", obs.KindCounter, float64(m.RegisterRequests.Load())),
		obs.ScalarFamily("ocsrouter_spmm_requests_total", "Blocked SpMM requests routed.", obs.KindCounter, float64(m.SpMMRequests.Load())),
		obs.ScalarFamily("ocsrouter_solve_requests_total", "Solve requests routed.", obs.KindCounter, float64(m.SolveRequests.Load())),
		obs.ScalarFamily("ocsrouter_primary_hits_total", "Row-block reads served by the block's primary copy.", obs.KindCounter, float64(m.PrimaryHits.Load())),
		obs.ScalarFamily("ocsrouter_failovers_total", "Requests retried on another copy or shard after a retryable shard failure.", obs.KindCounter, float64(m.Failovers.Load())),
		obs.ScalarFamily("ocsrouter_replications_total", "Hot handles replicated onto an additional shard.", obs.KindCounter, float64(m.Replications.Load())),
		obs.ScalarFamily("ocsrouter_replica_aliases_total", "Replications the target shard dedup-aliased instead of storing a second copy.", obs.KindCounter, float64(m.ReplicaAliases.Load())),
		obs.ScalarFamily("ocsrouter_rebalances_total", "Row blocks re-homed off a draining shard.", obs.KindCounter, float64(m.Rebalances.Load())),
		obs.ScalarFamily("ocsrouter_partitioned_registers_total", "Registrations placed as row-partitioned blocks.", obs.KindCounter, float64(m.PartitionedRegs.Load())),
	}

	fails := obs.Family{
		Name: "ocsrouter_shard_consecutive_failures",
		Help: "Consecutive failed probes/requests per shard (drives probe backoff).",
		Kind: obs.KindGauge,
	}
	for _, sc := range shards {
		fails.Samples = append(fails.Samples, obs.Sample{
			Labels: []obs.Label{{Key: "shard", Value: sc.Name()}},
			Value:  float64(sc.ConsecutiveFailures()),
		})
	}
	obs.SortSamples(&fails)
	fams = append(fams, fails)

	fams = append(fams,
		obs.HistFamily("ocsrouter_spmv_seconds", "End-to-end router time for spmv requests, shard round trips included.", m.SpMVSeconds.Snapshot()),
		obs.HistFamily("ocsrouter_spmm_seconds", "End-to-end router time for spmm requests, shard round trips included.", m.SpMMSeconds.Snapshot()),
		obs.HistFamily("ocsrouter_solve_seconds", "End-to-end router time for solve requests, shard round trips included.", m.SolveSeconds.Snapshot()),
	)

	m.mu.Lock()
	names := make([]string, 0, len(m.shardSeconds))
	for n := range m.shardSeconds {
		names = append(names, n)
	}
	sort.Strings(names)
	lat := obs.Family{
		Name: "ocsrouter_shard_request_seconds",
		Help: "Latency of individual shard round trips, labeled by shard.",
		Kind: obs.KindHistogram,
	}
	errs := obs.Family{
		Name: "ocsrouter_shard_request_errors_total",
		Help: "Failed shard round trips, labeled by shard.",
		Kind: obs.KindCounter,
	}
	// Cluster-wide rollup: the per-shard round-trip histograms folded into
	// one series with HistSnapshot.Merge, so a single family answers "what
	// does a shard round trip cost across the whole cluster" without
	// cross-label aggregation at query time. Merge treats the zero snapshot
	// as its identity, so the fold is well-defined (and commutative) from
	// an empty accumulator.
	var rollup obs.HistSnapshot
	for _, n := range names {
		label := []obs.Label{{Key: "shard", Value: n}}
		snap := m.shardSeconds[n].Snapshot()
		lat.Samples = append(lat.Samples, obs.Sample{Labels: label, Hist: snap})
		errs.Samples = append(errs.Samples, obs.Sample{Labels: label, Value: float64(m.shardErrors[n].Load())})
		rollup.Merge(snap)
	}
	m.mu.Unlock()
	return append(fams, lat, errs, obs.Family{
		Name:    "ocsrouter_cluster_shard_request_seconds",
		Help:    "Latency of shard round trips merged across all shards (cluster-wide rollup).",
		Kind:    obs.KindHistogram,
		Samples: []obs.Sample{{Hist: rollup}},
	})
}
