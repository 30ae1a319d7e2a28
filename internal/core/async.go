package core

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file implements the asynchronous stage-2 pipeline (Config.Async):
// once the lazy gate opens, feature extraction, model inference and the
// format conversion run on a background worker borrowed from the process
// parallel.Team while the solver keeps iterating on the current format. The
// result is installed at the next *swap point* — an iteration boundary
// where the caller guarantees no SpMV is in flight on this operator — so
// readers never observe a torn matrix. The overhead the paper charges as
// T_predict + T_convert mostly turns into *hidden* time: machine work
// overlapped with useful iterations instead of a stall.

// stage2Job is one in-flight background stage-2 run. tr is immutable after
// launch; canceled is an atomic flag both sides may touch; result is written
// by the background goroutine before it closes done and must only be read
// after observing the close (that close is the happens-before edge adoption
// synchronizes on).
type stage2Job struct {
	tr       obs.DecisionTrace // stage-1 trace snapshot
	canceled atomic.Bool
	done     chan struct{}
	result   stage2Result
}

// launchStage2 dispatches runStage2 to a background worker and returns
// immediately; the predictor bundle is captured here, so a later hot-swap
// never tears the decision in half. The argmin runs with an
// overlap budget of the full remaining-call count: by construction
// every call up to adoption can cover conversion time, so only the
// residual max(0, T_convert − T_overlap) is charged against a candidate.
// Post-launch SpMV calls are untimed until adoption (decided is set and no
// ledger is armed yet), which keeps a FakeClock replay deterministic: only
// the background job consumes clock steps while it runs.
func (ad *Adaptive) launchStage2(tr obs.DecisionTrace, remaining float64) {
	tr.Async = true
	job := &stage2Job{tr: tr, done: make(chan struct{})}
	ad.pending = job
	ad.stats.Async = true
	csr, preds, cfg, clock := ad.csr, ad.preds, ad.cfg, ad.clock
	parallel.Default().Go(func() {
		defer close(job.done)
		job.result = runStage2(csr, preds, cfg, clock, remaining, remaining, job.canceled.Load)
	})
}

// SwapPoint is the iteration-boundary hook: solvers (and ocsd's request
// handlers) call it at a point where no SpMV is in flight on this operator,
// giving the wrapper a safe instant to install the result of a background
// stage-2 run. It never blocks — a job still running is left to finish —
// and it is a bare nil check when nothing is pending, so calling it every
// iteration costs nothing measurable.
func (ad *Adaptive) SwapPoint() {
	ad.adoptPending()
}

// WaitPending blocks until the in-flight background stage-2 job completes,
// adopts its result, and reports whether there was one. Benchmarks and
// tests use it to make adoption deterministic; production loops never need
// it (RecordProgress and SwapPoint adopt opportunistically).
func (ad *Adaptive) WaitPending() bool {
	j := ad.pending
	if j == nil {
		return false
	}
	<-j.done
	ad.adoptPending()
	return true
}

// Close abandons any in-flight background stage-2 job without blocking: the
// solver converged (or the handle is being torn down) before the conversion
// could pay off, so the job's result — even a completed one — is dropped,
// never adopted. The background goroutine observes the canceled flag
// between phases and exits early. The abandoned run is journaled with
// Canceled set so the decision trail stays complete. Close is idempotent
// and the wrapper remains usable (on its current format) afterwards.
func (ad *Adaptive) Close() {
	j := ad.pending
	if j == nil {
		return
	}
	j.canceled.Store(true)
	ad.pending = nil
	ad.stats.Canceled = true
	tr := j.tr
	tr.Canceled = true
	ad.journalTrace(tr)
}

// adoptPending installs the pending job's result if the background work has
// finished — at a swap point, on the solver goroutine: all of the job's
// overhead is hidden, and the deferred decision trace is journaled now that
// the measured overheads exist. A job still running leaves the wrapper
// iterating on its current format.
func (ad *Adaptive) adoptPending() {
	j := ad.pending
	if j == nil {
		return
	}
	select {
	case <-j.done:
	default:
		return
	}
	ad.pending = nil
	tr := j.tr
	ad.applyStage2(&tr, j.result, true)
	ad.journalTrace(tr)
}
