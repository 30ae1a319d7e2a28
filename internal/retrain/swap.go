package retrain

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// This file is the control half of the loop: training a candidate bundle,
// gating it on a holdout of the newest samples, and hot-swapping accepted
// bundles into the Target.

// retrainLocked trains a candidate on the older samples, validates it
// per-format against the incumbent on the newest (held-out) samples, and
// swaps only when at least one format's models measurably improve. The
// merged bundle starts from the incumbent (Clone), so formats the candidate
// has no fresh evidence for — or does worse on — keep their proven models:
// a bad retraining round can never make the selector worse than it was,
// which is the overhead-conscious stance of the paper applied to the models
// themselves. Caller holds l.mu.
func (l *Loop) retrainLocked(res *TickResult) {
	l.retrains++
	res.Retrained = true

	nHold := int(math.Ceil(holdoutFrac * float64(len(l.samples))))
	if nHold < 1 {
		nHold = 1
	}
	if nHold >= len(l.samples) {
		nHold = len(l.samples) - 1
	}
	train := l.samples[:len(l.samples)-nHold]
	holdout := l.samples[len(l.samples)-nHold:]

	cand, err := l.cfg.TrainFunc(train, gbt.DefaultParams(), trainMinSamples)
	if err != nil {
		l.rejections++
		l.lastErr = fmt.Sprintf("training candidate: %v", err)
		res.Err = fmt.Errorf("retrain: %s", l.lastErr)
		return
	}

	incumbent := l.cfg.Target.Predictors()
	merged := incumbent.Clone()
	adopted := 0
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR || cand.ConvTime[f] == nil || cand.SpMVTime[f] == nil {
			continue
		}
		candErr, candN := holdoutErr(cand, f, holdout)
		incErr, _ := holdoutErr(incumbent, f, holdout)
		switch {
		case candN == 0:
			// No held-out evidence for this format: adopt only when the
			// incumbent has no model at all (any model beats none).
			if incumbent == nil || incumbent.ConvTime[f] == nil || incumbent.SpMVTime[f] == nil {
				merged.ConvTime[f] = cand.ConvTime[f]
				merged.SpMVTime[f] = cand.SpMVTime[f]
				adopted++
			}
		case candErr <= incErr:
			merged.ConvTime[f] = cand.ConvTime[f]
			merged.SpMVTime[f] = cand.SpMVTime[f]
			adopted++
		}
	}
	if adopted == 0 {
		l.rejections++
		l.lastErr = "candidate rejected: no format beat the incumbent on the holdout"
		l.cfg.Logger.Warn("retrain candidate rejected", "holdout", len(holdout), "train", len(train))
		return
	}

	var gen int64 = 1
	if incumbent != nil {
		gen = incumbent.Generation + 1
	}
	merged.Generation = gen
	updated := l.cfg.Target.SetPredictors(merged)
	l.swaps++
	l.lastSwapAt = l.cfg.Clock.Now()
	l.lastErr = ""
	res.Swapped = true
	res.Generation = gen
	res.HandlesUpdated = updated

	// A swap resets the drift evidence: the errors and regret on file were
	// accrued against the previous generation and would otherwise re-trigger
	// retraining forever.
	for _, cs := range l.classes {
		cs.errs = cs.errs[:0]
		cs.regret = 0
	}

	l.cfg.Logger.Info("retrain swap accepted",
		"generation", gen, "adopted_formats", adopted, "handles_updated", updated,
		"train", len(train), "holdout", len(holdout))

	if l.cfg.SaveDir != "" {
		dir := filepath.Join(l.cfg.SaveDir, fmt.Sprintf("gen-%04d", gen))
		man := trainer.Manifest{
			NumFeatures: features.NumFeatures,
			CreatedAt:   l.cfg.Clock.Now().UTC().Format(time.RFC3339),
			CorpusCount: len(train),
			Oracle:      "online",
		}
		if err := trainer.SaveBundle(dir, merged, man); err != nil {
			l.lastErr = fmt.Sprintf("persisting generation %d: %v", gen, err)
			res.Err = fmt.Errorf("retrain: %s", l.lastErr)
			l.cfg.Logger.Warn("retrain bundle persistence failed", "dir", dir, "error", err)
		}
	}
}

// holdoutErr scores a bundle's two models for format f on the held-out
// samples: the mean relative error over every (conversion, SpMV) target a
// holdout sample measured for f. n is how many targets contributed — 0
// means no evidence and err is meaningless. A nil bundle or missing models
// return +Inf, so "incumbent has no model" always loses to any candidate.
func holdoutErr(p *core.Predictors, f sparse.Format, holdout []trainer.Sample) (err float64, n int) {
	if p == nil || p.ConvTime[f] == nil || p.SpMVTime[f] == nil {
		return math.Inf(1), 0
	}
	var sum float64
	for _, s := range holdout {
		if v, ok := s.SpMVNorm[f]; ok {
			sum += relErr(p.SpMVTime[f].Predict(s.Features), v)
			n++
		}
		if v, ok := s.ConvNorm[f]; ok {
			sum += relErr(p.ConvTime[f].Predict(s.Features), v)
			n++
		}
	}
	if n == 0 {
		return math.Inf(1), 0
	}
	return sum / float64(n), n
}

func relErr(pred, actual float64) float64 {
	denom := math.Abs(actual)
	if denom < relErrFloor {
		denom = relErrFloor
	}
	return math.Abs(pred-actual) / denom
}

// ClassStatus is one workload class's drift evidence, for /debug/retrain.
type ClassStatus struct {
	Key           string  `json:"key"`
	Seen          int64   `json:"traces_seen"`
	Window        int     `json:"window_len"`
	MeanRelErr    float64 `json:"mean_rel_err"`
	RegretSeconds float64 `json:"regret_seconds"`
	Drifted       bool    `json:"drifted"`
}

// Status is the loop's observable state, served on /debug/retrain.
type Status struct {
	Generation     int64         `json:"generation"`
	TracesSeen     int64         `json:"traces_seen"`
	SamplesHeld    int           `json:"samples_held"`
	SamplesTotal   int64         `json:"samples_total"`
	DriftEvents    int64         `json:"drift_events"`
	Retrains       int64         `json:"retrains"`
	Swaps          int64         `json:"swaps"`
	Rejections     int64         `json:"rejections"`
	LastSwapAt     *time.Time    `json:"last_swap_at,omitempty"`
	LastError      string        `json:"last_error,omitempty"`
	ErrThreshold   float64       `json:"err_threshold"`
	RegretSeconds  float64       `json:"regret_threshold_seconds"`
	MinSamples     int           `json:"min_samples"`
	Classes        []ClassStatus `json:"classes,omitempty"`
	PendingTraceID uint64        `json:"next_trace_id"`
}

// Status snapshots the loop for the debug endpoint.
func (l *Loop) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Generation:     l.generationLocked(),
		TracesSeen:     l.tracesSeen,
		SamplesHeld:    len(l.samples),
		SamplesTotal:   l.harvested,
		DriftEvents:    l.driftEvents,
		Retrains:       l.retrains,
		Swaps:          l.swaps,
		Rejections:     l.rejections,
		LastError:      l.lastErr,
		ErrThreshold:   l.cfg.ErrThreshold,
		RegretSeconds:  l.cfg.RegretThreshold,
		MinSamples:     l.cfg.MinSamples,
		PendingTraceID: l.lastSeen + 1,
	}
	if !l.lastSwapAt.IsZero() {
		t := l.lastSwapAt
		st.LastSwapAt = &t
	}
	for key, cs := range l.classes {
		st.Classes = append(st.Classes, ClassStatus{
			Key:           key,
			Seen:          cs.seen,
			Window:        len(cs.errs),
			MeanRelErr:    cs.meanErr(),
			RegretSeconds: cs.regret,
			Drifted:       l.driftedLocked(cs),
		})
	}
	sort.Slice(st.Classes, func(i, k int) bool { return st.Classes[i].Key < st.Classes[k].Key })
	return st
}

func (l *Loop) generationLocked() int64 {
	if p := l.cfg.Target.Predictors(); p != nil {
		return p.Generation
	}
	return 0
}

// MetricFamilies renders the loop's counters as Prometheus families; the
// server appends them to its /metrics exposition.
func (l *Loop) MetricFamilies() []obs.Family {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []obs.Family{
		obs.ScalarFamily("ocsd_retrain_generation", "Generation of the live predictor bundle (0 = offline seed).", obs.KindGauge, float64(l.generationLocked())),
		obs.ScalarFamily("ocsd_retrain_traces_seen_total", "Decision traces inspected by the retrainer.", obs.KindCounter, float64(l.tracesSeen)),
		obs.ScalarFamily("ocsd_retrain_samples_held", "Training samples currently held in the harvest ring.", obs.KindGauge, float64(len(l.samples))),
		obs.ScalarFamily("ocsd_retrain_drift_events_total", "Ticks on which at least one workload class exceeded a drift threshold.", obs.KindCounter, float64(l.driftEvents)),
		obs.ScalarFamily("ocsd_retrain_retrains_total", "Candidate bundle trainings attempted.", obs.KindCounter, float64(l.retrains)),
		obs.ScalarFamily("ocsd_retrain_swaps_total", "Candidate bundles accepted by the holdout gate and hot-swapped.", obs.KindCounter, float64(l.swaps)),
		obs.ScalarFamily("ocsd_retrain_rejections_total", "Candidate bundles refused (worse holdout error or training failure).", obs.KindCounter, float64(l.rejections)),
	}
}
