package retrain

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// This file is the observation half of the loop: walking the journal,
// turning completed traces into trainer.Samples, and maintaining the
// per-workload-class drift statistics.

// relErrFloor guards relative-error denominators against near-zero measured
// times (mirrors trainer.relErrFloor).
const relErrFloor = 1e-3

// classState tracks one workload class's drift evidence: a sliding window
// of relative prediction errors and the cumulative regret its decisions
// have accrued since the last accepted swap.
type classState struct {
	errs   []float64 // sliding window, oldest first
	regret float64   // cumulative ledger regret seconds
	seen   int64     // traces attributed to this class
}

func (cs *classState) push(relErr float64) {
	cs.errs = append(cs.errs, relErr)
	if len(cs.errs) > errWindow {
		cs.errs = cs.errs[len(cs.errs)-errWindow:]
	}
}

func (cs *classState) meanErr() float64 {
	if len(cs.errs) == 0 {
		return 0
	}
	var sum float64
	for _, e := range cs.errs {
		sum += e
	}
	return sum / float64(len(cs.errs))
}

// driftedLocked applies the two thresholds: windowed mean relative
// prediction error (needs MinWindow observations to count) or cumulative
// regret. Caller holds l.mu.
func (l *Loop) driftedLocked(cs *classState) bool {
	if len(cs.errs) >= l.cfg.MinWindow && cs.meanErr() > l.cfg.ErrThreshold {
		return true
	}
	return cs.regret > l.cfg.RegretThreshold
}

// classKey buckets a Table I feature vector into a coarse workload class:
// density band x row-irregularity (CV) band x diagonal-structure band. The
// three axes are coarse structural summaries, so a class groups matrices the
// cost model treats alike — drift in one band (say, diag-heavy matrices
// suddenly mispredicted after a kernel regression) does not need the whole
// population to misbehave before it trips the threshold.
func classKey(fv []float64) string {
	// Canonical Vector() indices: 18 = "d" (density), 19 = "cv"
	// (row-length coefficient of variation), 4 = "NTdiags_ratio".
	band := func(v float64, lo, hi float64) int {
		switch {
		case v < lo:
			return 0
		case v < hi:
			return 1
		default:
			return 2
		}
	}
	d := band(fv[18], 0.01, 0.1)
	cv := band(fv[19], 0.3, 1.0)
	dg := band(fv[4], 0.3, 0.7)
	return fmt.Sprintf("d%d.cv%d.dg%d", d, cv, dg)
}

// harvestLocked walks the journal from the last fully-processed ID and
// ingests every consumable trace. A stage-2 trace whose ledger has no post
// calls yet blocks the walk (its realized time is not measured yet) until
// pendingGrace newer IDs exist, after which it is skipped for good.
// Returns how many traces became samples. Caller holds l.mu.
func (l *Loop) harvestLocked() int {
	j := l.cfg.Journal
	last := j.LastID()
	n := 0
	for id := l.lastSeen + 1; id <= last; id++ {
		tr, ok := j.Get(id)
		if !ok { // evicted before we got to it
			l.lastSeen = id
			l.tracesSeen++
			continue
		}
		if !consumable(tr) {
			if pending(tr) && last-id < pendingGrace {
				// Its ledger may still fill in; resume here next tick.
				break
			}
			l.lastSeen = id
			l.tracesSeen++
			continue
		}
		l.ingestLocked(tr)
		l.lastSeen = id
		l.tracesSeen++
		n++
	}
	return n
}

// consumable reports whether a trace carries everything a training sample
// needs: a completed stage-2 decision with the feature vector recorded and a
// ledger that has measured at least one post-decision call (its realized
// per-call time is meaningless before the first).
func consumable(tr obs.DecisionTrace) bool {
	return tr.Stage2Ran && !tr.Canceled &&
		len(tr.Features) == features.NumFeatures &&
		tr.Ledger.BaselineSpMVSeconds > 0 &&
		tr.Ledger.PostSpMVCalls > 0 &&
		tr.Ledger.RealizedSpMVSeconds > 0
}

// pending reports whether a not-yet-consumable trace could still become
// consumable (its handle just hasn't served post-decision calls yet).
func pending(tr obs.DecisionTrace) bool {
	return tr.Stage2Ran && !tr.Canceled &&
		len(tr.Features) == features.NumFeatures &&
		tr.Ledger.BaselineSpMVSeconds > 0 &&
		tr.Ledger.PostSpMVCalls == 0
}

// ingestLocked converts one consumable trace into a trainer.Sample and
// folds its prediction error + regret into the drift state of its workload
// class. Caller holds l.mu.
func (l *Loop) ingestLocked(tr obs.DecisionTrace) {
	led := tr.Ledger
	name := tr.Label
	if name == "" {
		name = fmt.Sprintf("trace-%d", tr.ID)
	}
	s := trainer.Sample{
		Name:     name,
		Features: tr.Features,
		CSRTime:  led.BaselineSpMVSeconds,
		ConvNorm: make(map[sparse.Format]float64),
		SpMVNorm: map[sparse.Format]float64{sparse.FmtCSR: 1},
	}
	if tr.Converted {
		if f, err := sparse.ParseFormat(tr.Chosen); err == nil && f != sparse.FmtCSR {
			// The only locally *measured* per-format truths are for the
			// format the handle actually ran on: realized per-call SpMV time
			// and the conversion the wrapper timed. Normalize by the
			// self-measured baseline, exactly as the offline oracle does.
			s.SpMVNorm[f] = led.RealizedSpMVSeconds / led.BaselineSpMVSeconds
			// A conversion-cache hit performed no conversion on this handle
			// (ConvertSeconds is 0 by construction, the publisher paid the
			// bill) — feeding that 0 in as a timing would teach the trainer
			// that conversion is free. Keep only genuinely measured costs.
			if !tr.ConvCacheHit {
				s.ConvNorm[f] = tr.ConvertSeconds / led.BaselineSpMVSeconds
			}
		}
	}
	l.samples = append(l.samples, s)
	if len(l.samples) > l.cfg.MaxSamples {
		l.samples = l.samples[len(l.samples)-l.cfg.MaxSamples:]
	}
	l.harvested++

	key := classKey(tr.Features)
	cs := l.classes[key]
	if cs == nil {
		cs = &classState{}
		l.classes[key] = cs
	}
	denom := led.RealizedSpMVSeconds
	if denom < relErrFloor*led.BaselineSpMVSeconds {
		denom = relErrFloor * led.BaselineSpMVSeconds
	}
	relErr := (led.PredictedSpMVSeconds - led.RealizedSpMVSeconds) / denom
	if relErr < 0 {
		relErr = -relErr
	}
	cs.push(relErr)
	cs.regret += led.RegretSeconds
	cs.seen++
}
