// Package obs is the observability substrate for the overhead-conscious
// selector and the ocsd service: lock-free latency histograms, a Prometheus
// text-exposition writer (and a hand-rolled parser to validate it), and a
// bounded decision journal whose entries carry a live T_affected ledger —
// the paper's accounting identity
//
//	T_affected = T_predict + T_convert + Σ T_spmv·N
//
// tracked online, so every conversion the selector makes can be audited
// against the payoff its cost model promised.
//
// The package is dependency-free (stdlib only) and imported by internal/core
// and internal/server; it must never import either.
package obs

import (
	"math"
	"sync/atomic"
)

// DefaultBucketStart is the smallest latency bucket bound: 1µs, below any
// kernel this repo times.
const DefaultBucketStart = 1e-6

// DefaultBucketCount yields bounds 1µs·2^i for i in [0, 27): the last finite
// bound is ~67s, past the default solve timeout; slower observations land in
// the +Inf overflow bucket.
const DefaultBucketCount = 27

// ExpBuckets returns n exponentially spaced upper bounds starting at lo,
// each factor×  the previous. It is the bucket layout every latency
// histogram in this repo uses (base 2: each bucket is one octave).
func ExpBuckets(lo, factor float64, n int) []float64 {
	if n <= 0 || lo <= 0 || factor <= 1 {
		return nil
	}
	b := make([]float64, n)
	v := lo
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Histogram is a lock-free fixed-bucket histogram of float64 observations
// (seconds, by convention). Observe is wait-free except for the sum's CAS
// loop; Snapshot never blocks observers. Counters are monotone, so a
// snapshot taken concurrently with observations is consistent-enough for
// monitoring: per-bucket counts may trail the sum by in-flight observations,
// never the reverse trend.
type Histogram struct {
	bounds []float64       // ascending finite upper bounds (inclusive, `le`)
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// A nil or empty bounds slice gets the default latency layout.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = ExpBuckets(DefaultBucketStart, 2, DefaultBucketCount)
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// NewLatencyHistogram builds a histogram with the default exponential
// latency buckets (1µs to ~67s, one octave per bucket).
func NewLatencyHistogram() *Histogram { return NewHistogram(nil) }

// Observe records one value. Negative and NaN observations are dropped
// (durations cannot be negative; a NaN would poison the sum forever).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// bucketIndex finds the first bound >= v. The bucket count is small
// (≤ ~30) and the loop is branch-predictable, so a linear scan beats
// binary search here.
func (h *Histogram) bucketIndex(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// HistSnapshot is a point-in-time copy of a histogram: per-bucket counts
// (not cumulative; the last entry is the +Inf overflow), total count, and
// value sum. Snapshots are plain data — mergeable and JSON-friendly.
type HistSnapshot struct {
	// Bounds are the finite upper bucket bounds, ascending.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; Counts[i] is the number of
	// observations v with Bounds[i-1] < v <= Bounds[i], and the final entry
	// counts observations above every finite bound.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
}

// Snapshot copies the histogram's current state without blocking observers.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the snapshot's average observation (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// IsZero reports whether the snapshot is the empty zero value (no layout,
// no observations) — the identity element of Merge.
func (s HistSnapshot) IsZero() bool {
	return len(s.Bounds) == 0 && len(s.Counts) == 0 && s.Count == 0 && s.Sum == 0
}

// Merge adds another snapshot's observations into s. Both snapshots must
// share the same bucket layout — including the implicit +Inf overflow
// bucket, so the merged +Inf count stays equal to the merged total count;
// mismatched layouts return false and leave s unchanged. The zero-value
// snapshot is the identity: merging into it adopts the other's layout,
// which makes folding per-shard snapshots from an empty accumulator
// order-independent. Merging snapshots (rather than live histograms) is
// what makes per-shard histograms aggregable without any cross-shard
// locking.
func (s *HistSnapshot) Merge(o HistSnapshot) bool {
	if o.IsZero() {
		return true
	}
	if s.IsZero() {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Count = o.Count
		s.Sum = o.Sum
		return true
	}
	if len(s.Bounds) != len(o.Bounds) || len(s.Counts) != len(o.Counts) {
		return false
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return false
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return true
}

// Quantile returns an upper-bound estimate of the q-quantile (0 <= q <= 1)
// using the bucket bounds: the bound of the bucket containing the q-th
// observation, or +Inf when it falls in the overflow bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}
