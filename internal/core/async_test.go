package core_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// The asynchronous pipeline's timed regions run on a background goroutine,
// but the FakeClock replay stays deterministic: solver SpMV calls between the
// launch and the install are untimed (the decision is made, no ledger is
// armed yet), so the background job is the only clock consumer while it runs,
// and every region it brackets measures exactly the scripted step.

// TestAsyncDeferredSwapGoldenReplay drives the loop to the gate under a 1ms
// auto-step with the background job pinned at its first clock read, asserts
// the swap is deferred while the job runs (the solver keeps its current
// format, nothing is journaled), then releases it, waits for it to install
// its own result and checks the paid/hidden split and the journaled ledger
// arithmetic to the exact scripted values:
//
//	paid   = stage-1 forecast          = 0.001
//	hidden = features + decide + convert = 0.003
func TestAsyncDeferredSwapGoldenReplay(t *testing.T) {
	preds := predictors(t)
	fake := timing.NewFakeClock()
	fake.SetAutoStep(time.Millisecond)
	// Clock call schedule: the 15 pre-decision SpMV calls bracket calls 1-30
	// and stage 1 calls 31-32 on the solver goroutine; the background job's
	// feature region opens at call 33.
	clk := newLatchClock(fake, 33)
	journal := obs.NewJournal(0)
	cfg := replayConfig(clk)
	cfg.Async = true
	cfg.Journal = journal
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	driveLoop(ad, 15, 1, 0.995)

	// The pipeline fired at iteration 15 and dispatched stage 2; nothing is
	// installed while the job is still at work.
	select {
	case <-clk.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("background pipeline never reached feature extraction")
	}
	st := ad.Stats()
	if !st.Async || !st.Pending {
		t.Fatalf("after launch: Async=%v Pending=%v, want true/true", st.Async, st.Pending)
	}
	if st.Stage2Ran || st.Converted || ad.Format() != sparse.FmtCSR {
		t.Fatalf("swap not deferred: %+v (format %v)", st, ad.Format())
	}
	if _, ok := ad.TraceID(); ok {
		t.Fatal("trace journaled before the install")
	}

	close(clk.gate)
	if !ad.WaitPending() {
		t.Fatal("WaitPending found no job")
	}
	st = ad.Stats()
	if st.Pending {
		t.Fatal("still pending after WaitPending")
	}
	if !st.Stage2Ran || !st.Converted || st.Format == sparse.FmtCSR {
		t.Fatalf("banded long loop did not install a conversion: %+v", st)
	}
	ms := time.Millisecond.Seconds()
	if st.PaidSeconds != ms {
		t.Errorf("PaidSeconds = %g, want exactly %g (stage 1 only)", st.PaidSeconds, ms)
	}
	if st.HiddenSeconds != 3*ms {
		t.Errorf("HiddenSeconds = %g, want exactly %g", st.HiddenSeconds, 3*ms)
	}
	if st.FeatureSeconds != ms || st.PredictSeconds != 2*ms || st.ConvertSeconds != ms {
		t.Errorf("overheads = %g/%g/%g, want %g/%g/%g",
			st.FeatureSeconds, st.PredictSeconds, st.ConvertSeconds, ms, 2*ms, ms)
	}
	if got := ad.OverheadSeconds(); got != 4*ms {
		t.Errorf("OverheadSeconds = %g, want exactly %g", got, 4*ms)
	}
	if st.PaidSeconds+st.HiddenSeconds != ad.OverheadSeconds() {
		t.Errorf("paid %g + hidden %g != total %g", st.PaidSeconds, st.HiddenSeconds, ad.OverheadSeconds())
	}

	// The trace was journaled at the install with the split and a ledger that
	// charges only the paid share.
	id, ok := ad.TraceID()
	if !ok {
		t.Fatal("no trace after the install")
	}
	tr, found := journal.Get(id)
	if !found {
		t.Fatal("trace missing from journal")
	}
	if !tr.Async || tr.Canceled || !tr.Converted {
		t.Fatalf("trace flags: %+v", tr)
	}
	if tr.PaidSeconds != ms || tr.HiddenSeconds != 3*ms {
		t.Errorf("trace split = %g/%g, want %g/%g", tr.PaidSeconds, tr.HiddenSeconds, ms, 3*ms)
	}
	if tr.Ledger.OverheadSeconds != ms || tr.Ledger.HiddenSeconds != 3*ms {
		t.Errorf("ledger split = %g/%g, want %g/%g",
			tr.Ledger.OverheadSeconds, tr.Ledger.HiddenSeconds, ms, 3*ms)
	}
	if tr.Ledger.NetSeconds != -ms || tr.Ledger.RegretSeconds != ms {
		t.Errorf("ledger seed: net %g regret %g, want %g/%g",
			tr.Ledger.NetSeconds, tr.Ledger.RegretSeconds, -ms, ms)
	}

	// Post-install SpMV calls are timed again for the ledger. Script them at
	// 0.5ms (each timed region consumes two Now calls; the elapsed time is
	// the opening call's advance): with a 1ms baseline, three such calls save
	// 3 * 0.5ms = 1.5ms, repaying the 1ms paid share — net arithmetic exact.
	halfMS := (500 * time.Microsecond).Seconds()
	fake.Script(500*time.Microsecond, 0, 500*time.Microsecond, 0, 500*time.Microsecond, 0)
	rows, cols := ad.Dims()
	x := make([]float64, cols)
	y := make([]float64, rows)
	for i := 0; i < 3; i++ {
		ad.SpMV(y, x)
	}
	tr, _ = journal.Get(id)
	l := tr.Ledger
	if l.PostSpMVCalls != 3 {
		t.Fatalf("PostSpMVCalls = %d, want 3", l.PostSpMVCalls)
	}
	// Mirror the ledger's own accumulation order so the comparison is exact
	// in float64, not merely close: the baseline is the mean of the 15
	// pre-decision 1ms observations, the realized rate the mean of the three
	// scripted 0.5ms ones.
	var base float64
	for i := 0; i < 15; i++ {
		base += ms
	}
	baseline := base / 15
	post := halfMS + halfMS + halfMS
	wantSaved := (baseline - post/3) * 3
	if l.SavedSeconds != wantSaved {
		t.Errorf("SavedSeconds = %g, want exactly %g", l.SavedSeconds, wantSaved)
	}
	if l.BaselineSpMVSeconds != baseline {
		t.Errorf("BaselineSpMVSeconds = %g, want %g", l.BaselineSpMVSeconds, baseline)
	}
	if want := wantSaved - ms; l.NetSeconds != want {
		t.Errorf("NetSeconds = %g, want exactly %g (saved - paid; hidden never charged)", l.NetSeconds, want)
	}
	if !l.BrokeEven || l.RegretSeconds != 0 {
		t.Errorf("BrokeEven=%v RegretSeconds=%g after repaying the paid share", l.BrokeEven, l.RegretSeconds)
	}
}

// latchClock wraps a FakeClock so one specific Now call (1-based) blocks
// until the test releases it — pinning the background pipeline mid-flight.
type latchClock struct {
	fake    *timing.FakeClock
	mu      sync.Mutex
	blockAt int
	calls   int
	gate    chan struct{}
	blocked chan struct{}
}

func newLatchClock(fake *timing.FakeClock, blockAt int) *latchClock {
	return &latchClock{fake: fake, blockAt: blockAt, gate: make(chan struct{}), blocked: make(chan struct{})}
}

func (c *latchClock) Now() time.Time {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	if n == c.blockAt {
		close(c.blocked)
		<-c.gate
	}
	return c.fake.Now()
}

func (c *latchClock) NowCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestAsyncCancelBeforeAdoption pins the background job at the start of its
// feature-extraction region, closes the wrapper (the solver "converged"
// first), and asserts Close neither blocks nor adopts: the wrapper stays on
// CSR, a canceled stage-1-only trace is journaled, and — once released — the
// background goroutine notices the flag after its current region and never
// starts the conversion.
func TestAsyncCancelBeforeAdoption(t *testing.T) {
	preds := predictors(t)
	fake := timing.NewFakeClock()
	fake.SetAutoStep(time.Millisecond)
	// Clock call schedule: stage 1 brackets calls 1-2 on the solver
	// goroutine; the background job's feature region opens at call 3.
	clk := newLatchClock(fake, 3)
	journal := obs.NewJournal(0)
	cfg := core.Config{K: 15, TH: 15, Margin: 0.1, Async: true, Clock: clk, Journal: journal}
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	// No SpMV calls: the overhead gate needs a measured baseline and disarms
	// without one, so stage 2 launches on the stage-1 forecast alone.
	driveLoop(ad, 15, 0, 0.995)

	select {
	case <-clk.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("background pipeline never reached feature extraction")
	}
	done := make(chan struct{})
	go func() { ad.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on the in-flight background job")
	}

	st := ad.Stats()
	if !st.Canceled || st.Pending {
		t.Fatalf("after Close: Canceled=%v Pending=%v, want true/false", st.Canceled, st.Pending)
	}
	if st.Stage2Ran || st.Converted || ad.Format() != sparse.FmtCSR {
		t.Fatalf("canceled job was adopted: %+v (format %v)", st, ad.Format())
	}
	id, ok := ad.TraceID()
	if !ok {
		t.Fatal("Close did not journal the abandoned trace")
	}
	tr, _ := journal.Get(id)
	if !tr.Canceled || !tr.Async || tr.Stage2Ran {
		t.Fatalf("canceled trace flags: Canceled=%v Async=%v Stage2Ran=%v", tr.Canceled, tr.Async, tr.Stage2Ran)
	}
	if tr.PredictedTotal < 1000 || len(tr.Gates) == 0 {
		t.Errorf("canceled trace lost its stage-1 data: total=%d gates=%d", tr.PredictedTotal, len(tr.Gates))
	}

	// Release the job: it finishes the feature region (calls 3-4), observes
	// the flag, and exits without ever opening the decide or convert regions.
	close(clk.gate)
	deadline := time.Now().Add(5 * time.Second)
	for clk.NowCalls() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := clk.NowCalls(); got != 4 {
		t.Errorf("clock calls = %d, want exactly 4 (canceled job must not reach decide/convert)", got)
	}
	// The wrapper stays usable on its current format, and Close is idempotent.
	rows, cols := ad.Dims()
	x := make([]float64, cols)
	y := make([]float64, rows)
	ad.SpMV(y, x)
	ad.Close()
	if ad.WaitPending() {
		t.Error("WaitPending found a job after Close")
	}
}

// TestAsyncJobInstallsItsOwnResult pins the background job at the start of
// its conversion region — decided, nothing to install yet — and asserts the
// wrapper still answers as CSR with the job pending and no trace; once the
// job is released and WaitPending returns, the operator, the stats, the
// journaled trace and its ledger seed are all in place with no further
// SpMV, RecordProgress or other call on the handle to collect them.
func TestAsyncJobInstallsItsOwnResult(t *testing.T) {
	preds := predictors(t)
	fake := timing.NewFakeClock()
	fake.SetAutoStep(time.Millisecond)
	// Clock call schedule (no SpMV calls, as in TestAsyncCancelBeforeAdoption):
	// stage 1 is calls 1-2, the job's feature region 3-4, decide 5-6, and the
	// conversion region opens at call 7.
	clk := newLatchClock(fake, 7)
	journal := obs.NewJournal(0)
	cfg := core.Config{K: 15, TH: 15, Margin: 0.1, Async: true, Clock: clk, Journal: journal}
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	driveLoop(ad, 15, 0, 0.995)

	select {
	case <-clk.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("background pipeline never reached the conversion")
	}
	if st := ad.Stats(); !st.Pending || st.Stage2Ran || ad.Format() != sparse.FmtCSR {
		t.Fatalf("job pinned mid-flight: %+v (format %v), want pending on CSR", st, ad.Format())
	}
	if _, ok := ad.TraceID(); ok {
		t.Fatal("trace journaled while the job is still converting")
	}

	close(clk.gate)
	if !ad.WaitPending() {
		t.Fatal("WaitPending found no job")
	}
	st := ad.Stats()
	if st.Pending || !st.Stage2Ran || !st.Converted || st.Format == sparse.FmtCSR || ad.Format() != st.Format {
		t.Fatalf("job did not install its result: %+v (format %v)", st, ad.Format())
	}
	id, ok := ad.TraceID()
	if !ok {
		t.Fatal("job did not journal its trace")
	}
	tr, _ := journal.Get(id)
	if !tr.Async || !tr.Converted || tr.Chosen != st.Format.String() {
		t.Fatalf("trace: Async=%v Converted=%v Chosen=%q, want the installed %v", tr.Async, tr.Converted, tr.Chosen, st.Format)
	}
	ms := time.Millisecond.Seconds()
	if tr.Ledger.OverheadSeconds != ms || tr.Ledger.HiddenSeconds != 3*ms || tr.Ledger.NetSeconds != -ms {
		t.Errorf("ledger seed = paid %g hidden %g net %g, want %g/%g/%g",
			tr.Ledger.OverheadSeconds, tr.Ledger.HiddenSeconds, tr.Ledger.NetSeconds, ms, 3*ms, -ms)
	}
	// The installed operator multiplies like the master.
	rows, cols := ad.Dims()
	x, y, want := make([]float64, cols), make([]float64, rows), make([]float64, rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	ad.SpMV(y, x)
	m.SpMV(want, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("installed operator differs at row %d: %g vs %g", i, y[i], want[i])
		}
	}
}

// TestAsyncConcurrentSpMVDuringSwap hammers an Adaptive with concurrent SpMV
// callers while the background pipeline converts and installs its own result
// — under -race this is the torn-matrix check: the swap happens under the
// handle lock, so every concurrent reader must compute the same y as the CSR
// reference, before and after the flip.
func TestAsyncConcurrentSpMVDuringSwap(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	cfg := core.Config{K: 15, TH: 15, Margin: 0.1, Async: true}
	sa := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	rows, cols := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, rows)
	m.SpMV(want, x)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, rows)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sa.SpMV(y, x)
				for i := range y {
					if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						select {
						case errc <- "torn or wrong SpMV result during swap":
						default:
						}
						return
					}
				}
			}
		}()
	}
	// Feed progress from the main goroutine: the 15th report launches the
	// background pipeline while the readers keep multiplying.
	r := 1.0
	for i := 0; i < 30; i++ {
		r *= 0.995
		sa.RecordProgress(r)
		time.Sleep(time.Millisecond)
	}
	sa.WaitPending()
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	st := sa.Stats()
	if !st.Async || !st.Stage2Ran {
		t.Fatalf("pipeline did not complete async: %+v", st)
	}
	if !st.Converted {
		t.Skipf("bundle chose to stay on CSR (%v); swap path not exercised", st.Decision.Format)
	}
	// One more read on the adopted format against the dense reference.
	y := make([]float64, rows)
	sa.SpMV(y, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("post-swap SpMV differs at %d: %g vs %g", i, y[i], want[i])
		}
	}
}

// TestDecideQueryOverlapProperties checks the overlap-aware cost model against
// the inline one: with no overlap budget they are identical (bit-for-bit,
// same argmin), and an overlap budget can only lower a candidate's cost —
// with a full budget the conversion term vanishes entirely, leaving the
// per-iteration comparison.
func TestDecideQueryOverlapProperties(t *testing.T) {
	preds := predictors(t)
	for _, fam := range []matgen.Family{matgen.FamBanded, matgen.FamRandom, matgen.FamPowerLaw} {
		m := genCSR(t, fam, 3000, 11)
		fs := features.Extract(m)
		blocks := features.CountBlocks(m, sparse.DefaultLimits.BSRBlockSize)
		for _, remaining := range []float64{20, 200, 5000} {
			inline := preds.Decide(fs, blocks, remaining, sparse.DefaultLimits, 0.1)
			q := core.Query{BSRBlocks: blocks, Remaining: remaining, Lim: sparse.DefaultLimits, Margin: 0.1}
			zero := preds.DecideQuery(fs, q)
			if zero.Format != inline.Format {
				t.Errorf("%v r=%g: overlap=0 chose %v, inline chose %v", fam, remaining, zero.Format, inline.Format)
			}
			for f, c := range inline.PredictedCost {
				if zc, ok := zero.PredictedCost[f]; !ok || zc != c {
					t.Errorf("%v r=%g %v: overlap=0 cost %g != inline cost %g", fam, remaining, f, zc, c)
				}
			}
			q.Overlap = remaining
			full := preds.DecideQuery(fs, q)
			for f, c := range full.PredictedCost {
				ic, ok := inline.PredictedCost[f]
				if !ok {
					continue
				}
				if c > ic {
					t.Errorf("%v r=%g %v: overlap raised the cost %g -> %g", fam, remaining, f, ic, c)
				}
				if f != sparse.FmtCSR {
					// conv hidden entirely: cost = overlap spent in old format
					// + the rest at the predicted rate; never above inline's
					// conv + remaining*spmv, and strictly below when conv > 0.
					conv := inline.PredictedConv[f]
					spmv := inline.PredictedSpMV[f]
					h := math.Min(conv, remaining)
					want := (conv - h) + h + (remaining-h)*spmv
					if c != want {
						t.Errorf("%v r=%g %v: full-overlap cost %g, want %g", fam, remaining, f, c, want)
					}
				}
			}
		}
	}
}
