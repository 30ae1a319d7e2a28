package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// RegisterRequest is the body of POST /v1/matrices. Exactly one of
// MatrixMarket (inline .mtx text) or Generate must be set.
type RegisterRequest struct {
	// Name is an optional human label echoed back in stats.
	Name string `json:"name,omitempty"`
	// MatrixMarket is the matrix in Matrix Market exchange text.
	MatrixMarket string `json:"matrix_market,omitempty"`
	// Generate asks the server to synthesize a matrix instead.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Tol is the convergence tolerance of the loops this matrix will be
	// used in, on the scale of the progress indicator fed to the selector
	// (absolute residual norm for the linear solvers). Defaults to 1e-8.
	Tol float64 `json:"tol,omitempty"`
	// AsTransition converts the uploaded adjacency matrix into the
	// column-stochastic PageRank transition operator at registration and
	// stores the dangling-node flags; required for app "pagerank".
	AsTransition bool `json:"as_transition,omitempty"`
	// Dangling installs precomputed dangling-node flags alongside an
	// already-built transition operator (len must equal the row count).
	// The cluster router uses this to replicate or re-home a transition
	// handle exported from another shard without re-deriving the operator;
	// mutually exclusive with AsTransition, requires MatrixMarket.
	Dangling []bool `json:"dangling,omitempty"`
}

// GenerateSpec names a synthetic matrix family (see internal/matgen):
// banded, stencil2d, stencil3d, random, uniform, powerlaw, block, spd.
type GenerateSpec struct {
	Family string `json:"family"`
	Size   int    `json:"size"`
	Degree int    `json:"degree,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// SelectorStats is the JSON rendering of core.Stats: what the two-stage
// selector did for this handle and what it cost (the paper's T_predict and
// T_convert, measured).
type SelectorStats struct {
	Iterations     int     `json:"iterations"`
	Stage1Ran      bool    `json:"stage1_ran"`
	PredictedTotal int     `json:"predicted_total,omitempty"`
	Stage2Ran      bool    `json:"stage2_ran"`
	Converted      bool    `json:"converted"`
	Format         string  `json:"format"`
	FeatureSeconds float64 `json:"feature_seconds"`
	PredictSeconds float64 `json:"predict_seconds"`
	ConvertSeconds float64 `json:"convert_seconds"`
	// Async pipeline state: Pending means stage 2 is still running in the
	// background; Canceled means it was abandoned at handle teardown. Paid
	// and hidden split the overhead between seconds spent on the request
	// path and seconds overlapped with in-flight work.
	Async         bool    `json:"async,omitempty"`
	Pending       bool    `json:"pending,omitempty"`
	Canceled      bool    `json:"canceled,omitempty"`
	PaidSeconds   float64 `json:"paid_seconds,omitempty"`
	HiddenSeconds float64 `json:"hidden_seconds,omitempty"`
	// SpMMCalls counts blocked multi-vector products served by this handle.
	SpMMCalls int64 `json:"spmm_calls,omitempty"`
	// ConvCacheHit reports that stage 2 adopted a conversion published by an
	// earlier tenant: convert_seconds stays 0 and the publisher's bill
	// appears under hidden_seconds.
	ConvCacheHit bool `json:"convcache_hit,omitempty"`
}

func selectorStats(st core.Stats) SelectorStats {
	return SelectorStats{
		Iterations:     st.Iterations,
		Stage1Ran:      st.Stage1Ran,
		PredictedTotal: st.PredictedTotal,
		Stage2Ran:      st.Stage2Ran,
		Converted:      st.Converted,
		Format:         st.Format.String(),
		FeatureSeconds: st.FeatureSeconds,
		PredictSeconds: st.PredictSeconds,
		ConvertSeconds: st.ConvertSeconds,
		Async:          st.Async,
		Pending:        st.Pending,
		Canceled:       st.Canceled,
		PaidSeconds:    st.PaidSeconds,
		HiddenSeconds:  st.HiddenSeconds,
		SpMMCalls:      st.SpMMCalls,
		ConvCacheHit:   st.ConvCacheHit,
	}
}

// MatrixInfo is the stats document for one registered matrix, returned by
// registration and GET /v1/matrices/{id}.
type MatrixInfo struct {
	ID         string        `json:"id"`
	Name       string        `json:"name,omitempty"`
	Rows       int           `json:"rows"`
	Cols       int           `json:"cols"`
	NNZ        int           `json:"nnz"`
	Tol        float64       `json:"tol"`
	Transition bool          `json:"transition"`
	CreatedAt  time.Time     `json:"created_at"`
	SpMVCalls  int64         `json:"spmv_calls"`
	SolveCalls int64         `json:"solve_calls"`
	Selector   SelectorStats `json:"selector"`
	// Fingerprint is the deterministic hash of the matrix structure
	// (dims/indptr/indices, not values) — stable across processes and worker
	// counts. Together with ValueDigest it keys the registry's dedup store
	// and the cross-handle conversion cache.
	Fingerprint string `json:"fingerprint,omitempty"`
	// ValueDigest hashes the numeric values (IEEE-754 bit patterns), the
	// other half of the dedup/cache identity.
	ValueDigest string `json:"value_digest,omitempty"`
	// DuplicateOf names the earlier handle this registration aliases: the
	// two share one resident CSR copy, the duplicate charged zero nnz
	// against the registry budget, and any conversion either pays is
	// published for both.
	DuplicateOf string `json:"duplicate_of,omitempty"`
	// TraceID addresses this handle's decision trace in the journal
	// (GET /v1/trace/{matrix-id} resolves it); 0 until the pipeline runs.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Evicted lists handles that were removed to make room; only set on
	// the registration response.
	Evicted []string `json:"evicted,omitempty"`
}

// ListResponse is the body of GET /v1/matrices.
type ListResponse struct {
	Matrices    []MatrixInfo `json:"matrices"`
	RegistryNNZ int64        `json:"registry_nnz"`
	CapacityNNZ int64        `json:"capacity_nnz"`
}

// PanelRequest is the body of POST /v1/matrices/{id}/spmv and .../spmm: a
// batch of k x-vectors, each of length cols. /spmv multiplies them one SpMV
// call at a time; /spmm packs them into a row-major panel and multiplies in
// one blocked pass (Y = A*X), amortizing each matrix traversal across all k
// columns.
type PanelRequest struct {
	X [][]float64 `json:"x"`
	// Progress, when set, feeds the caller's loop-progress indicator (e.g.
	// a distributed solve's residual norm) to this shard's selector before
	// computing, so shards that only ever serve gather fan-out still open
	// their lazy gate and run the format-selection pipeline.
	Progress *float64 `json:"progress,omitempty"`
}

// PanelResponse returns y = A*x for each input vector, in order. K is the
// panel width, reported by /spmm only; ocsd never sets ServedBy. The wire
// codec owns the document's fields.
type PanelResponse = wire.Reply

// SolveRequest is the body of POST /v1/matrices/{id}/solve.
type SolveRequest struct {
	// App selects the solver: cg, pcg, bicgstab, gmres, jacobi, power,
	// pagerank (pagerank requires registration with as_transition).
	App string `json:"app"`
	// B is the right-hand side; defaults to the all-ones vector. Ignored
	// by pagerank and power.
	B []float64 `json:"b,omitempty"`
	// Tol, MaxIters, Restart override the solver defaults.
	Tol      float64 `json:"tol,omitempty"`
	MaxIters int     `json:"max_iters,omitempty"`
	Restart  int     `json:"restart,omitempty"`
	// Damping is the PageRank damping factor (default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// TimeoutMillis caps the solve wall-clock; defaults to the server's
	// configured timeout. The solvers abort within one iteration.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// IncludeX returns the solution vector (omitted by default: for large
	// systems it dominates the response size).
	IncludeX bool `json:"include_x,omitempty"`
}

// SolveResponse summarizes a solve and the selector activity it drove.
type SolveResponse struct {
	App        string `json:"app"`
	Iterations int    `json:"iterations"`
	// SpMVCalls is the solver's exact SpMV count for this request (2 per
	// BiCGSTAB iteration; 1 per Arnoldi step + 1 per restart for GMRES).
	SpMVCalls      int           `json:"spmv_calls"`
	Converged      bool          `json:"converged"`
	Residual       float64       `json:"residual"`
	Format         string        `json:"format"`
	DurationMillis float64       `json:"duration_ms"`
	Selector       SelectorStats `json:"selector"`
	Eigenvalue     *float64      `json:"eigenvalue,omitempty"`
	X              []float64     `json:"x,omitempty"`
}

// ExportResponse is the body of GET /v1/matrices/{id}/export: everything a
// peer shard needs to re-register this handle verbatim — the matrix in
// Matrix Market text (full %.17g precision, so values round-trip bit-exact)
// plus the registration attributes that are not derivable from the text.
// The cluster router uses it to replicate hot handles and to re-home
// handles off a draining shard.
type ExportResponse struct {
	ID           string  `json:"id"`
	Name         string  `json:"name,omitempty"`
	Tol          float64 `json:"tol"`
	Transition   bool    `json:"transition"`
	Dangling     []bool  `json:"dangling,omitempty"`
	Fingerprint  string  `json:"fingerprint"`
	MatrixMarket string  `json:"matrix_market"`
}

// BuildInfo is the body of GET /buildinfo.
type BuildInfo struct {
	ModulePath    string `json:"module_path,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	VCSTime       string `json:"vcs_time,omitempty"`
	VCSModified   bool   `json:"vcs_modified,omitempty"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
}

// DecisionsResponse is the body of GET /debug/decisions: recent decision
// traces, newest first.
type DecisionsResponse struct {
	Count  int                 `json:"count"`
	Traces []obs.DecisionTrace `json:"traces"`
}

// SpansResponse is the body of GET /v1/spans/{trace}: this shard's local
// spans for one trace, unassembled (the router's /v1/trace/{id} builds the
// cross-shard tree). An empty list means the shard never saw the trace.
type SpansResponse struct {
	Trace string     `json:"trace"`
	Count int        `json:"count"`
	Spans []obs.Span `json:"spans"`
}

// SlowResponse is the body of GET /debug/slow: the slowest request traces
// seen so far, slowest first.
type SlowResponse struct {
	Slowest []obs.SlowTrace `json:"slowest"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}
