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
// job installs its own result the moment it has one, under the wrapper's
// mutex — the one SpMV holds — so no SpMV is in flight across the swap and
// nobody has to come by and collect it. The overhead the paper charges as
// T_predict + T_convert mostly turns into *hidden* time: machine work
// overlapped with useful iterations instead of a stall.

// stage2Job is one background stage-2 run. tr is immutable after launch;
// canceled is an atomic flag both sides may touch; done closes once the job
// has installed its result or found itself abandoned.
type stage2Job struct {
	tr       obs.DecisionTrace // stage-1 trace snapshot
	canceled atomic.Bool
	done     chan struct{}
}

// launchStage2 dispatches runStage2 to a background worker and returns
// immediately; the job takes the bundle pointer here, at launch. The argmin
// runs with an overlap budget of the full remaining-call count: by
// construction every call up to the install can cover conversion time, so
// only the residual max(0, T_convert − T_overlap) is charged against a
// candidate.
// SpMV calls between launch and install are untimed (decided is set and no
// ledger is armed yet), which keeps a FakeClock replay deterministic: only
// the background job consumes clock steps while it runs. Caller holds mu.
func (ad *Adaptive) launchStage2(tr obs.DecisionTrace, remaining float64) {
	tr.Async = true
	job := &stage2Job{tr: tr, done: make(chan struct{})}
	ad.job = job
	ad.stats.Async = true
	ad.stats.Pending = true
	csr, preds, cfg, clock := ad.csr, ad.preds, ad.cfg, ad.clock
	parallel.Default().Go(func() {
		defer close(job.done)
		r := runStage2(csr, preds, cfg, clock, remaining, remaining, job.canceled.Load)
		ad.mu.Lock()
		defer ad.mu.Unlock()
		if ad.job != job {
			return // abandoned by Close: the result, even a complete one, is dropped
		}
		// All of the job's overhead is hidden, and the trace is journaled now
		// that the measured overheads exist.
		ad.stats.Pending = false
		tr := job.tr
		ad.applyStage2(&tr, r, true)
		ad.journalTrace(tr)
	})
}

// WaitPending blocks until the background stage-2 job, if one was launched
// and not abandoned, has installed its result, and reports whether there was
// one. Benchmarks and tests use it to make the install deterministic;
// production loops never need it.
func (ad *Adaptive) WaitPending() bool {
	ad.mu.Lock()
	j := ad.job
	ad.mu.Unlock()
	if j == nil {
		return false
	}
	<-j.done
	return true
}

// Close abandons a background stage-2 job that has not installed its result
// yet, without waiting for it: the solver converged (or the handle is being
// torn down) before the conversion could pay off. The background goroutine
// observes the canceled flag between phases and exits early; whatever it
// had, it drops. The abandoned run is journaled with Canceled set so the
// decision trail stays complete. Close is idempotent and the wrapper
// remains usable (on its current format) afterwards.
func (ad *Adaptive) Close() {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	if !ad.stats.Pending {
		return
	}
	j := ad.job
	j.canceled.Store(true)
	ad.job = nil
	ad.stats.Pending = false
	ad.stats.Canceled = true
	tr := j.tr
	tr.Canceled = true
	ad.journalTrace(tr)
}
