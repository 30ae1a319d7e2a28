package cluster

import (
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// RegisterRequest is the router's registration body: everything ocsd
// accepts plus cluster placement options, so ocsd clients work against the
// router unchanged.
type RegisterRequest struct {
	server.RegisterRequest
	// Partition forces row-block partitioning across shards. Without it the
	// router still auto-partitions matrices larger than the configured
	// per-shard nnz budget.
	Partition *PartitionSpec `json:"partition,omitempty"`
}

// PartitionSpec requests row-block placement.
type PartitionSpec struct {
	// Parts is the number of row blocks; the nnz-balanced cut may yield
	// fewer, and a cut into one block registers a whole handle.
	Parts int `json:"parts"`
}

// Placement names one hosted copy or block of a handle.
type Placement struct {
	Shard    string `json:"shard"`
	RemoteID string `json:"remote_id"`
	// RowLo/RowHi delimit the block for partitioned handles ([0, rows) for
	// whole copies).
	RowLo int `json:"row_lo"`
	RowHi int `json:"row_hi"`
}

// RouteInfo is the router's document for one global handle.
type RouteInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name,omitempty"`
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	NNZ         int     `json:"nnz"`
	Tol         float64 `json:"tol"`
	Transition  bool    `json:"transition"`
	Fingerprint string  `json:"fingerprint"`
	// DuplicateOf names an earlier live handle with the same structure
	// fingerprint: the upload is (structurally) a duplicate the registry
	// could dedupe. Detection only — both handles stay live.
	DuplicateOf string `json:"duplicate_of,omitempty"`
	Partitioned bool   `json:"partitioned"`
	// Primary is the authoritative copy for whole handles; nil for
	// partitioned ones.
	Primary *Placement `json:"primary,omitempty"`
	// Replicas are the additional read copies of a whole handle.
	Replicas []Placement `json:"replicas,omitempty"`
	// Parts are the row blocks of a partitioned handle, ascending by row.
	Parts      []Placement `json:"parts,omitempty"`
	SpMVCalls  int64       `json:"spmv_calls"`
	SolveCalls int64       `json:"solve_calls"`
	// Handles carries the shard-side stats documents (selector state, the
	// paid/hidden overhead ledger split) for each placement; populated on
	// GET /v1/matrices/{id}, omitted from list responses.
	Handles []server.MatrixInfo `json:"handles,omitempty"`
}

// ListResponse is the router's GET /v1/matrices body.
type ListResponse struct {
	Matrices []RouteInfo   `json:"matrices"`
	Shards   []ShardStatus `json:"shards"`
}

// ShardStatus reports one shard's membership state.
type ShardStatus struct {
	Shard               string `json:"shard"`
	Healthy             bool   `json:"healthy"`
	Draining            bool   `json:"draining"`
	ConsecutiveFailures int64  `json:"consecutive_failures"`
	Handles             int    `json:"handles"`
}

// ShardsResponse is the GET /admin/shards body.
type ShardsResponse struct {
	Shards []ShardStatus `json:"shards"`
}

// PanelResponse is the router's spmv/spmm body: the shard (or
// router-gathered) product plus, in ServedBy, which shards actually computed
// it. It is ocsd's document; the wire codec owns its fields.
type PanelResponse = wire.Reply

// SolveResponse is the router's solve body: the shard (or router-gathered)
// response plus which shards served it.
type SolveResponse struct {
	server.SolveResponse
	ServedBy []string `json:"served_by"`
}

// AddShardRequest is the POST /admin/shards body.
type AddShardRequest struct {
	Shard string `json:"shard"`
}

// DrainRequest is the POST /admin/drain body.
type DrainRequest struct {
	Shard string `json:"shard"`
}

// DrainResponse summarizes a shard drain: how many handles were promoted to
// an existing replica, exported and re-homed, or lost (no surviving copy
// and the shard unreachable).
type DrainResponse struct {
	Shard    string   `json:"shard"`
	Promoted int      `json:"promoted"`
	Moved    int      `json:"moved"`
	Lost     []string `json:"lost,omitempty"`
}

// TraceTreeResponse is the router's GET /v1/trace/{id} body: the assembled
// cross-process span tree — router spans plus every shard's local spans,
// fetched on demand and joined by parent span ID.
type TraceTreeResponse struct {
	Trace string `json:"trace"`
	// Spans counts all spans in the tree; Shards lists the shards that
	// contributed at least one.
	Spans  int             `json:"spans"`
	Shards []string        `json:"shards,omitempty"`
	Tree   []*obs.SpanNode `json:"tree"`
}

// SlowResponse is the router's GET /debug/slow body: the slowest routed
// requests, slowest first.
type SlowResponse struct {
	Slowest []obs.SlowTrace `json:"slowest"`
}
