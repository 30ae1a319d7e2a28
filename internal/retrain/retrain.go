// Package retrain closes the loop the ROADMAP calls "close the loop": it
// turns the decision journal's passive telemetry into control. The paper
// trains its stage-2 cost models offline (§IV-C) and ships them frozen; a
// long-running ocsd deployment, however, measures the truth on every
// decision — the obs.Ledger holds realized-vs-predicted per-call SpMV time
// and cumulative regret for each trace. This package consumes completed
// traces as they accumulate, converts them into trainer.Samples with locally
// *measured* normalized times, watches per-workload-class drift (windowed
// mean relative prediction error, cumulative regret), and when drift crosses
// the configured thresholds retrains the conversion/SpMV regressors with
// trainer.Train, validates the candidate on a holdout of the most recent
// samples (refusing to swap when it does worse than the incumbent), and
// hot-swaps the accepted bundle into the live selectors through the Target.
//
// The design follows the ML-driven auto-selection loop of Morpheus
// (arXiv:2303.05098) adapted to the paper's overhead accounting: drift is
// detected on the exact quantities the T_affected ledger already maintains,
// so the retrainer adds no instrumentation of its own to the decision path.
package retrain

import (
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gbt"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// Target is the live selector population the loop swaps accepted bundles
// into. The server implements it: Predictors returns the bundle new handles
// are built with, SetPredictors publishes a new bundle for future handles
// AND pushes it into every registered handle whose pipeline has not decided
// yet, returning how many handles were updated. The retrainer never mutates
// a bundle in place — Predictors values are immutable once published.
type Target interface {
	Predictors() *core.Predictors
	SetPredictors(p *core.Predictors) int
}

// Config tunes the loop. Zero values get the documented defaults; Journal
// and Target are required.
type Config struct {
	// Journal is the decision journal the loop harvests traces from.
	Journal *obs.Journal
	// Target receives accepted bundles (the server).
	Target Target
	// Clock supplies timestamps (status, bundle manifests); nil = wall
	// clock. Inject a timing.FakeClock for deterministic tests.
	Clock timing.Clock
	// Interval is the tick period of the background loop (default 30s).
	// Tests skip Start entirely and call Tick directly.
	Interval time.Duration

	// MinSamples is how many harvested samples must exist before a drift
	// event is allowed to trigger retraining (default 8).
	MinSamples int
	// MaxSamples bounds the sample ring; oldest are dropped (default 512).
	MaxSamples int
	// MinWindow is how many observations a class needs before its windowed
	// mean error counts as evidence (default 4).
	MinWindow int
	// ErrThreshold is the windowed mean relative prediction error above
	// which a class is drifted (default 0.5: predictions off by 50%).
	ErrThreshold float64
	// RegretThreshold is the cumulative regret (seconds) accumulated by a
	// class above which it is drifted regardless of relative error
	// (default 1s).
	RegretThreshold float64

	// TrainFunc builds a candidate bundle from the training split with
	// gbt.DefaultParams() and a per-format floor of trainMinSamples; nil =
	// trainer.Train. Tests inject poisoned candidates through it.
	TrainFunc func(samples []trainer.Sample, p gbt.Params, minSamples int) (*core.Predictors, error)

	// SaveDir, when non-empty, receives one trainer.SaveBundle directory
	// per accepted swap (gen-0001, gen-0002, ...).
	SaveDir string
	// Logger receives the loop's structured logs; nil = slog.Default().
	Logger *slog.Logger
	// Tracer, when non-nil, receives one root span per tick (service
	// "retrain", name "retrain.tick") annotated with what the tick did, so
	// background model refreshes are inspectable through the same
	// /v1/spans plumbing as request traffic.
	Tracer *obs.Tracer
}

// The loop's fixed tuning.
const (
	// errWindow is the per-class relative-error window length.
	errWindow = 32
	// holdoutFrac is the fraction of the newest samples reserved for
	// candidate validation, never trained on.
	holdoutFrac = 0.25
	// pendingGrace bounds how long harvesting waits for a stage-2 trace
	// whose ledger has no post-decision calls yet: once the journal has
	// advanced this many IDs past it, the trace is skipped for good.
	pendingGrace = 64
	// trainMinSamples is trainer.Train's per-format sample floor.
	trainMinSamples = 2
)

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = timing.WallClock{}
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 512
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 4
	}
	if c.ErrThreshold <= 0 {
		c.ErrThreshold = 0.5
	}
	if c.RegretThreshold <= 0 {
		c.RegretThreshold = 1.0
	}
	if c.TrainFunc == nil {
		c.TrainFunc = trainer.Train
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Loop is the online retrainer. Construct with New, drive with Start/Stop
// (production) or Tick (tests).
type Loop struct {
	cfg Config

	mu       sync.Mutex
	samples  []trainer.Sample // harvest ring, oldest first
	classes  map[string]*classState
	lastSeen uint64 // highest journal ID fully processed

	// Counters, all under mu.
	tracesSeen  int64 // traces inspected (consumed or permanently skipped)
	harvested   int64 // traces converted into samples
	driftEvents int64 // ticks on which at least one class was drifted
	retrains    int64 // candidate trainings attempted
	swaps       int64 // candidates accepted and hot-swapped
	rejections  int64 // candidates refused by the holdout gate (or training failures)
	lastErr     string
	lastSwapAt  time.Time

	running bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// New builds a Loop. Journal and Target are required.
func New(cfg Config) (*Loop, error) {
	if cfg.Journal == nil {
		return nil, fmt.Errorf("retrain: Config.Journal is required")
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("retrain: Config.Target is required")
	}
	return &Loop{cfg: cfg.withDefaults(), classes: make(map[string]*classState)}, nil
}

// Start launches the background loop: a ticker goroutine that dispatches
// each tick's work through the worker team and waits for it before sleeping
// again, so ticks never overlap and the loop never parks on a team worker
// between ticks. Idempotent.
func (l *Loop) Start() {
	l.mu.Lock()
	if l.running {
		l.mu.Unlock()
		return
	}
	l.running = true
	l.stop = make(chan struct{})
	stop := l.stop
	l.mu.Unlock()

	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(l.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				done := make(chan struct{})
				parallel.Default().Go(func() {
					defer close(done)
					l.Tick()
				})
				select {
				case <-done:
				case <-stop:
					<-done // let the in-flight tick finish cleanly
					return
				}
			}
		}
	}()
}

// Stop halts the background loop and waits for any in-flight tick.
// Idempotent; the Loop remains usable via Tick afterwards.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.running {
		l.mu.Unlock()
		return
	}
	l.running = false
	close(l.stop)
	l.mu.Unlock()
	l.wg.Wait()
}

// TickResult reports what one tick did, for tests and logs.
type TickResult struct {
	// Harvested is how many new traces became samples this tick.
	Harvested int
	// Drifted lists the workload classes over threshold this tick.
	Drifted []string
	// Retrained reports that a candidate was trained.
	Retrained bool
	// Swapped reports that the candidate passed the holdout gate and was
	// installed; Generation is the new bundle generation when it was.
	Swapped    bool
	Generation int64
	// HandlesUpdated is how many live handles received the new bundle.
	HandlesUpdated int
	// Err carries a training/persistence failure (the loop keeps running).
	Err error
}

// Tick runs one harvest→drift→retrain→validate→swap cycle synchronously.
// Production ticks come from Start's goroutine; tests call it directly for
// deterministic scheduling.
func (l *Loop) Tick() TickResult {
	l.mu.Lock()
	defer l.mu.Unlock()

	var res TickResult
	if tr := l.cfg.Tracer; tr != nil {
		sp := tr.StartSpan("retrain.tick", obs.SpanContext{})
		defer func() {
			sp.SetAttr("harvested", strconv.Itoa(res.Harvested))
			sp.SetAttr("drifted", strconv.Itoa(len(res.Drifted)))
			sp.SetAttr("retrained", strconv.FormatBool(res.Retrained))
			sp.SetAttr("swapped", strconv.FormatBool(res.Swapped))
			if res.Swapped {
				sp.SetAttr("generation", strconv.FormatInt(res.Generation, 10))
			}
			sp.End()
		}()
	}
	res.Harvested = l.harvestLocked()

	for key, cs := range l.classes {
		if l.driftedLocked(cs) {
			res.Drifted = append(res.Drifted, key)
		}
	}
	if len(res.Drifted) == 0 {
		return res
	}
	l.driftEvents++
	if len(l.samples) < l.cfg.MinSamples {
		l.lastErr = fmt.Sprintf("drift in %v but only %d/%d samples", res.Drifted, len(l.samples), l.cfg.MinSamples)
		return res
	}
	l.retrainLocked(&res)
	return res
}
