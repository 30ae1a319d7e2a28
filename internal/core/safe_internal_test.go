package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sparse"
	"repro/internal/timing"
)

// denseCSR is an n x n matrix with every entry stored: few rows, so its
// operands stay small, and enough nonzeros that a wide blocked product on it
// runs for milliseconds.
func denseCSR(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = 1 + float64(i%5)
	}
	a, err := sparse.FromDense(n, n, vals)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSafeAdaptiveSpMMInFlightBlocksNothing holds a real blocked product in
// flight (a wide one, milliseconds long) and requires the handle's other
// callers — SpMV, RecordProgress, Stats — to get through before it ends: the
// product takes no lock. What the selector
// measures must not change with that: the SpMV that shared the cores with the
// product is served but is no sample of an SpMV's cost, for the gate before
// the decision and for the ledger after it.
func TestSafeAdaptiveSpMMInFlightBlocksNothing(t *testing.T) {
	const n, k = 64, 4096
	a := denseCSR(t, n)
	ad := NewAdaptive(a, 1e-8, nil, DefaultConfig(), false)
	xp, yp := make([]float64, n*k), make([]float64, n*k)
	x, y := make([]float64, n), make([]float64, n)

	// overlapped runs others while a product is in flight and requires that it
	// still is when they return, and that samples did not move meanwhile. A
	// product that won the race instead (never seen) is retried.
	overlapped := func(samples func() int64, others func()) {
		t.Helper()
		for attempt := 0; attempt < 50; attempt++ {
			began, before := ad.spmmCalls.Load(), samples()
			done := make(chan struct{})
			go func() {
				defer close(done)
				ad.SpMM(yp, xp, k)
			}()
			for ad.spmmCalls.Load() == began {
				runtime.Gosched()
			}
			others()
			still := ad.spmmInFlight.Load() > 0
			<-done
			if !still {
				continue
			}
			if got := samples(); got != before {
				t.Errorf("an SpMV that overlapped a blocked product was booked as a timing sample (%d -> %d)", before, got)
			}
			return
		}
		t.Fatal("the handle's other callers never finished before a blocked product in flight did")
	}

	gate := func() int64 { return int64(ad.spmvCalls) }
	overlapped(gate, func() {
		ad.SpMV(y, x)
		ad.RecordProgress(1)
		if st := ad.Stats(); st.SpMMCalls == 0 {
			t.Errorf("SpMMCalls = 0 while a product is in flight: it counts when it begins")
		}
	})
	before := gate()
	ad.SpMV(y, x)
	if got := gate(); got != before+1 {
		t.Errorf("an SpMV that ran alone moved the gate's samples %d -> %d, want +1", before, got)
	}

	ad.rec.Stage2Ran = true
	ad.decided.Store(true)
	ledger := func() int64 {
		tr, _ := ad.Trace()
		return tr.Ledger.PostSpMVCalls
	}
	overlapped(ledger, func() { ad.SpMV(y, x) })
	before = ledger()
	ad.SpMV(y, x)
	if got := ledger(); got != before+1 {
		t.Errorf("an SpMV that ran alone moved the ledger's samples %d -> %d, want +1", before, got)
	}
}

// hookClock runs hook inside its first Now call.
type hookClock struct {
	timing.Clock
	hook func()
}

func (c *hookClock) Now() time.Time {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.Clock.Now()
}

// TestSafeAdaptiveSpMMInsideSpMVDropsSample starts a blocked product from
// inside an SpMV's timed region, through the clock the SpMV reads while it
// holds the handle lock. That the product returns at all is the lock-freedom
// claim with no scheduler in it; and an SpMV that a product joined after it
// started is no timing sample either.
func TestSafeAdaptiveSpMMInsideSpMVDropsSample(t *testing.T) {
	const n, k = 16, 3
	a := denseCSR(t, n)
	clk := &hookClock{Clock: timing.NewFakeClock()}
	cfg := DefaultConfig()
	cfg.Clock = clk
	ad := NewAdaptive(a, 1e-8, nil, cfg, false)
	xp, yp := make([]float64, n*k), make([]float64, n*k)
	x, y := make([]float64, n), make([]float64, n)

	clk.hook = func() { ad.SpMM(yp, xp, k) }
	ad.SpMV(y, x)
	if got := ad.Stats().SpMMCalls; got != 1 {
		t.Fatalf("SpMMCalls = %d, want 1: the hooked product did not run", got)
	}
	if ad.spmvCalls != 0 {
		t.Errorf("an SpMV that a blocked product joined midway left %d timing samples, want 0", ad.spmvCalls)
	}
	ad.SpMV(y, x)
	if ad.spmvCalls != 1 {
		t.Errorf("an SpMV that ran alone left %d timing samples, want 1", ad.spmvCalls)
	}
}
