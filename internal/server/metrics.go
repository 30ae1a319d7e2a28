package server

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Metrics is the daemon's telemetry set: atomic counters plus lock-free
// latency histograms, exposed on /metrics as Prometheus text. Everything is
// an atomic so the hot paths never take a lock for bookkeeping; a scrape is
// consistent-enough (counters are monotone, so slight skew between fields is
// harmless).
//
// The zero value is usable: nil histograms drop observations (obs.Histogram
// methods are nil-safe), so internal constructors that only need the
// counters can keep building &Metrics{}. The daemon builds NewMetrics().
type Metrics struct {
	// HTTP traffic.
	RequestsTotal atomic.Int64 // every request routed to a /v1 handler
	RequestErrors atomic.Int64 // requests answered with a 4xx/5xx status
	InFlight      atomic.Int64 // /v1 requests currently being served

	// Work admitted through the pool.
	SpMVRequests  atomic.Int64 // spmv endpoint calls
	SpMVVectors   atomic.Int64 // individual x-vectors multiplied
	SpMMRequests  atomic.Int64 // spmm endpoint calls (blocked multi-vector products)
	SpMMColumns   atomic.Int64 // columns multiplied through the spmm endpoint
	SolveIters    atomic.Int64 // solver iterations executed server-side
	QueueRejected atomic.Int64 // requests bounced because the queue was full
	Timeouts      atomic.Int64 // requests that hit their deadline

	// Selector activity. Conversions counts stage-2 decisions that
	// re-formatted a matrix; ConversionsAvoided counts stage-2 runs that
	// (correctly, per the cost model) kept CSR.
	Conversions        atomic.Int64
	ConversionsAvoided atomic.Int64

	// Per-format SpMV counts, indexed by sparse.Format. Solves are
	// attributed by the solver's exact SpMV count (apps.Result.SpMVs:
	// BiCGSTAB pays two per iteration, restarted GMRES one per Arnoldi step
	// plus one per restart), at the handle's format at request end.
	SpMVByFormat [sparse.NumFormats]atomic.Int64

	// Registry occupancy, maintained by the Registry.
	RegistryMatrices atomic.Int64
	RegistryNNZ      atomic.Int64
	RegistryBytes    atomic.Int64
	Evictions        atomic.Int64

	// Dedup store activity: registrations that aliased a resident identical
	// matrix instead of storing a second copy, and the nonzeros that
	// aliasing kept out of the nnz budget.
	DedupHits     atomic.Int64
	DedupSavedNNZ atomic.Int64

	// Latency histograms (seconds). SpMVSeconds and SolveSeconds time whole
	// requests' compute (inside the pool slot); QueueWaitSeconds times the
	// admission wait for a slot; the last three are the selector's measured
	// stage-2 overheads (the paper's T_predict split in two, plus
	// T_convert), observed once per handle when its pipeline runs.
	SpMVSeconds      *obs.Histogram
	SpMMSeconds      *obs.Histogram
	SolveSeconds     *obs.Histogram
	QueueWaitSeconds *obs.Histogram
	FeatureSeconds   *obs.Histogram
	PredictSeconds   *obs.Histogram
	ConvertSeconds   *obs.Histogram
}

// NewMetrics builds the full telemetry set, histograms included.
func NewMetrics() *Metrics {
	return &Metrics{
		SpMVSeconds:      obs.NewLatencyHistogram(),
		SpMMSeconds:      obs.NewLatencyHistogram(),
		SolveSeconds:     obs.NewLatencyHistogram(),
		QueueWaitSeconds: obs.NewLatencyHistogram(),
		FeatureSeconds:   obs.NewLatencyHistogram(),
		PredictSeconds:   obs.NewLatencyHistogram(),
		ConvertSeconds:   obs.NewLatencyHistogram(),
	}
}

// CountSpMV attributes n SpMV executions to format f.
func (m *Metrics) CountSpMV(f sparse.Format, n int64) {
	if f.Valid() {
		m.SpMVByFormat[int(f)].Add(n)
	}
}

// Families assembles the Prometheus metric families for WriteText, in a
// deterministic order. extra families (e.g. build info) are appended last.
func (m *Metrics) Families(extra ...obs.Family) []obs.Family {
	fams := []obs.Family{
		obs.ScalarFamily("ocsd_requests_total", "Requests routed to /v1 handlers.", obs.KindCounter, float64(m.RequestsTotal.Load())),
		obs.ScalarFamily("ocsd_request_errors_total", "Requests answered with a 4xx/5xx status.", obs.KindCounter, float64(m.RequestErrors.Load())),
		obs.ScalarFamily("ocsd_in_flight_requests", "/v1 requests currently being served.", obs.KindGauge, float64(m.InFlight.Load())),
		obs.ScalarFamily("ocsd_spmv_requests_total", "Calls to the spmv endpoint.", obs.KindCounter, float64(m.SpMVRequests.Load())),
		obs.ScalarFamily("ocsd_spmv_vectors_total", "Individual x-vectors multiplied by the spmv endpoint.", obs.KindCounter, float64(m.SpMVVectors.Load())),
		obs.ScalarFamily("ocsd_spmm_requests_total", "Calls to the spmm endpoint (blocked multi-vector products).", obs.KindCounter, float64(m.SpMMRequests.Load())),
		obs.ScalarFamily("ocsd_spmm_columns_total", "Columns multiplied through the spmm endpoint.", obs.KindCounter, float64(m.SpMMColumns.Load())),
		obs.ScalarFamily("ocsd_solve_iterations_total", "Solver iterations executed server-side.", obs.KindCounter, float64(m.SolveIters.Load())),
		obs.ScalarFamily("ocsd_queue_rejected_total", "Requests bounced because the admission queue was full.", obs.KindCounter, float64(m.QueueRejected.Load())),
		obs.ScalarFamily("ocsd_timeouts_total", "Requests that hit their deadline.", obs.KindCounter, float64(m.Timeouts.Load())),
		obs.ScalarFamily("ocsd_conversions_total", "Stage-2 decisions that re-formatted a matrix.", obs.KindCounter, float64(m.Conversions.Load())),
		obs.ScalarFamily("ocsd_conversions_avoided_total", "Stage-2 runs that kept CSR per the cost model.", obs.KindCounter, float64(m.ConversionsAvoided.Load())),
		obs.ScalarFamily("ocsd_registry_matrices", "Matrices currently registered.", obs.KindGauge, float64(m.RegistryMatrices.Load())),
		obs.ScalarFamily("ocsd_registry_nnz", "Total nonzeros currently stored.", obs.KindGauge, float64(m.RegistryNNZ.Load())),
		obs.ScalarFamily("ocsd_registry_bytes", "Approximate bytes of matrix storage resident.", obs.KindGauge, float64(m.RegistryBytes.Load())),
		obs.ScalarFamily("ocsd_evictions_total", "Handles evicted to make room in the registry.", obs.KindCounter, float64(m.Evictions.Load())),
		obs.ScalarFamily("ocsd_dedup_hits_total", "Registrations that aliased a resident identical matrix.", obs.KindCounter, float64(m.DedupHits.Load())),
		obs.ScalarFamily("ocsd_dedup_saved_nnz_total", "Nonzeros kept out of the nnz budget by handle dedup.", obs.KindCounter, float64(m.DedupSavedNNZ.Load())),
	}

	byFormat := obs.Family{
		Name: "ocsd_spmv_by_format_total",
		Help: "SpMV executions attributed to the matrix format they ran on.",
		Kind: obs.KindCounter,
	}
	for i := range m.SpMVByFormat {
		if n := m.SpMVByFormat[i].Load(); n > 0 {
			byFormat.Samples = append(byFormat.Samples, obs.Sample{
				Labels: []obs.Label{{Key: "format", Value: sparse.Format(i).String()}},
				Value:  float64(n),
			})
		}
	}
	obs.SortSamples(&byFormat)
	fams = append(fams, byFormat)

	for _, h := range []struct {
		name, help string
		h          *obs.Histogram
	}{
		{"ocsd_spmv_seconds", "Compute time of /v1 spmv requests inside their pool slot.", m.SpMVSeconds},
		{"ocsd_spmm_seconds", "Compute time of /v1 spmm requests inside their pool slot.", m.SpMMSeconds},
		{"ocsd_solve_seconds", "Compute time of /v1 solve requests inside their pool slot.", m.SolveSeconds},
		{"ocsd_queue_wait_seconds", "Time requests waited for a pool slot before computing.", m.QueueWaitSeconds},
		{"ocsd_feature_seconds", "Selector stage-2 feature extraction time per pipeline run (part of T_predict).", m.FeatureSeconds},
		{"ocsd_predict_seconds", "Selector stage-1 forecast plus stage-2 model inference time per pipeline run (part of T_predict).", m.PredictSeconds},
		{"ocsd_convert_seconds", "Format conversion time per pipeline run (T_convert).", m.ConvertSeconds},
	} {
		if h.h != nil {
			fams = append(fams, obs.HistFamily(h.name, h.help, h.h.Snapshot()))
		}
	}
	return append(fams, extra...)
}
