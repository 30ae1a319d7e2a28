package core

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// SafeAdaptive makes an Adaptive usable from multiple goroutines. Adaptive
// itself mirrors a single solver loop and is documented as single-goroutine;
// a long-lived service that shares one matrix handle across concurrent
// requests needs the stronger contract. SafeAdaptive provides it by
// serializing every access behind one mutex: SpMV calls on the same handle
// never overlap (each SpMV is internally goroutine-parallel already, so
// serializing requests costs little throughput), and the lazy-and-light
// pipeline still runs exactly once, no matter how many goroutines feed
// progress concurrently. The one exception is SpMM, which needs no lock
// (see SpMM).
//
// SafeAdaptive satisfies the same Operator contract as Adaptive, so it
// drops into the solvers unchanged.
type SafeAdaptive struct {
	mu sync.Mutex
	ad *Adaptive
}

// NewSafeAdaptive wraps an existing Adaptive. The caller must not keep
// using the inner Adaptive directly afterwards.
func NewSafeAdaptive(ad *Adaptive) *SafeAdaptive {
	return &SafeAdaptive{ad: ad}
}

// SpMV computes y = A*x under the handle lock.
func (s *SafeAdaptive) SpMV(y, x []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.SpMV(y, x)
}

// SpMM computes the blocked product Y = A*X; X and Y are row-major panels
// (row j occupies x[j*k : j*k+k]). It takes no lock: Adaptive.SpMM runs on
// the immutable CSR master and two atomic counters, so a blocked product in
// flight blocks nothing and nothing blocks it.
func (s *SafeAdaptive) SpMM(y, x []float64, k int) { s.ad.SpMM(y, x, k) }

// Dims returns the matrix dimensions.
func (s *SafeAdaptive) Dims() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ad.Dims()
}

// RecordProgress feeds one loop iteration's progress indicator. The K-th
// call (across all goroutines) triggers the selection pipeline while the
// lock is held, so concurrent SpMV callers observe the format change
// atomically.
func (s *SafeAdaptive) RecordProgress(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.RecordProgress(v)
}

// SwapPoint gives the wrapper a safe instant to install the result of a
// background stage-2 run. The handle lock is held across the swap, so
// concurrent SpMV callers observe the format change atomically — never a
// torn matrix.
func (s *SafeAdaptive) SwapPoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.SwapPoint()
}

// WaitPending blocks until an in-flight background stage-2 job has been
// adopted, reporting whether there was one. The handle lock is NOT held
// while waiting (only across the adoption), so concurrent SpMV traffic
// keeps flowing while the background job runs.
func (s *SafeAdaptive) WaitPending() bool {
	s.mu.Lock()
	j := s.ad.pending
	s.mu.Unlock()
	if j == nil {
		return false
	}
	<-j.done
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.adoptPending()
	return true
}

// Close abandons any in-flight background stage-2 job without blocking.
func (s *SafeAdaptive) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.Close()
}

// Stats returns a copy of the wrapper's bookkeeping.
func (s *SafeAdaptive) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ad.Stats()
}

// Format returns the format SpMV currently runs on.
func (s *SafeAdaptive) Format() sparse.Format {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ad.Format()
}

// SetSpanParent installs the request-scoped span context the selector's
// stage spans are emitted under, under the handle lock. Request handlers
// set it at admission so pipeline work triggered by their traffic is
// attributed to their trace.
func (s *SafeAdaptive) SetSpanParent(sc obs.SpanContext) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.SetSpanParent(sc)
}

// SetPredictors hot-swaps the stage-2 model bundle under the handle lock.
// A handle whose pipeline has not fired yet decides with the new bundle;
// one that already decided is unaffected (decisions are final per handle).
func (s *SafeAdaptive) SetPredictors(p *Predictors) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ad.SetPredictors(p)
}

// ModelGeneration reports the generation of the installed bundle, 0 when
// none is installed.
func (s *SafeAdaptive) ModelGeneration() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ad.ModelGeneration()
}

// OverheadSeconds is the total measured selector overhead so far.
func (s *SafeAdaptive) OverheadSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ad.OverheadSeconds()
}

// TraceID returns the journal ID of the wrapper's decision trace, with
// ok=false before the pipeline has run or when no journal is configured.
func (s *SafeAdaptive) TraceID() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ad.TraceID()
}
