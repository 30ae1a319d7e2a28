package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// gateMatrix is a CSR whose blocked kernel parks until released, so a test
// can hold a product in flight for as long as it likes.
type gateMatrix struct {
	*sparse.CSR
	once             *sync.Once
	entered, release chan struct{}
}

func (g gateMatrix) SpMM(y, x []float64, k int) { g.SpMMParallel(y, x, k) }

func (g gateMatrix) SpMMParallel(y, x []float64, k int) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	g.CSR.SpMM(y, x, k)
}

// TestSafeAdaptiveSpMMKernelRunsOutsideLock holds a blocked product in flight
// and requires the handle's other callers to get through meanwhile: the
// k-column kernel is the longest thing a handle does, and with the lock held
// across it every SpMV on a hot handle queued behind it. What the selector
// measures must not change with that: the SpMV that shared the cores with the
// product is served but is no sample of an SpMV's cost.
func TestSafeAdaptiveSpMMKernelRunsOutsideLock(t *testing.T) {
	a, err := matgen.Generate(matgen.Spec{Family: matgen.FamBanded, Size: 300, Degree: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ad := NewAdaptive(a, 1e-8, nil, DefaultConfig(), true)
	gate := gateMatrix{CSR: a, once: new(sync.Once), entered: make(chan struct{}), release: make(chan struct{})}
	ad.cur = gate
	sa := NewSafeAdaptive(ad)
	rows, cols := sa.Dims()

	const k = 3
	xp, yp, want := make([]float64, cols*k), make([]float64, rows*k), make([]float64, rows*k)
	for i := range xp {
		xp[i] = float64(i%7) - 2.5
	}
	a.SpMM(want, xp, k)
	spmmDone := make(chan struct{})
	go func() {
		defer close(spmmDone)
		sa.SpMM(yp, xp, k)
	}()
	<-gate.entered

	others := make(chan struct{})
	go func() {
		defer close(others)
		x, y := make([]float64, cols), make([]float64, rows)
		sa.SpMV(y, x)
		sa.SwapPoint()
		if got := sa.Stats().SpMMCalls; got != 1 {
			t.Errorf("SpMMCalls = %d while the product is in flight, want 1 (counted when it began)", got)
		}
	}()
	select {
	case <-others:
	case <-time.After(10 * time.Second):
		t.Fatal("SpMV/SwapPoint/Stats queued behind a blocked product in flight")
	}
	if ad.spmvCalls != 0 || ad.spmvSeconds != 0 {
		t.Errorf("an SpMV that overlapped the blocked kernel was booked as a timing sample (%d, %gs)", ad.spmvCalls, ad.spmvSeconds)
	}
	close(gate.release)
	<-spmmDone
	sa.SpMV(make([]float64, rows), make([]float64, cols))
	if ad.spmvCalls != 1 {
		t.Errorf("an SpMV that ran alone left %d timing samples, want 1", ad.spmvCalls)
	}

	// After the decision the same holds for the ledger: neither the SpMV that
	// met a product in flight nor that product is a sample; one that ran
	// alone is.
	journal := obs.NewJournal(4)
	ad.cfg.Journal = journal
	ad.traceID = journal.Append(obs.DecisionTrace{})
	ad.decided, ad.ledger = true, true
	gate = gateMatrix{CSR: a, once: new(sync.Once), entered: make(chan struct{}), release: make(chan struct{})}
	ad.cur = gate
	spmmDone = make(chan struct{})
	go func() {
		defer close(spmmDone)
		sa.SpMM(yp, xp, k)
	}()
	<-gate.entered
	sa.SpMV(make([]float64, rows), make([]float64, cols))
	close(gate.release)
	<-spmmDone
	posted := func() int64 {
		tr, _ := journal.Get(ad.traceID)
		return tr.Ledger.PostSpMVCalls
	}
	if n := posted(); n != 0 {
		t.Errorf("%d ledger samples from kernels that overlapped, want 0", n)
	}
	sa.SpMM(yp, xp, k)
	if n := posted(); n != 1 {
		t.Errorf("%d ledger samples after a product that ran alone, want 1", n)
	}
	for i := range want {
		if yp[i] != want[i] {
			t.Fatalf("product differs at %d: %g vs %g", i, yp[i], want[i])
		}
	}
}
