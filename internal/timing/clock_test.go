package timing

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sparse"
)

func TestFakeClockAutoStep(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(5 * time.Millisecond)
	t0 := c.Now()
	t1 := c.Now()
	if d := t1.Sub(t0); d != 5*time.Millisecond {
		t.Errorf("auto-step advance %v, want 5ms", d)
	}
	// A timed region measures exactly the auto-step, regardless of work.
	start := c.Now()
	if d := Since(c, start); d != 5*time.Millisecond {
		t.Errorf("region measured %v, want 5ms", d)
	}
	if c.NowCalls() != 4 {
		t.Errorf("NowCalls %d, want 4", c.NowCalls())
	}
}

func TestFakeClockScriptThenAutoStep(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(time.Microsecond)
	c.Script(3*time.Millisecond, 0, 7*time.Millisecond)
	// Region 1 consumes the 3ms script step at its opening Now and the 0
	// at its closing Now, so region 2 opens unshifted and measures 7ms.
	s1 := c.Now()
	d1 := Since(c, s1)
	s2 := c.Now()
	d2 := Since(c, s2)
	if d1 != 3*time.Millisecond || d2 != 7*time.Millisecond {
		t.Errorf("scripted regions measured %v, %v; want 3ms, 7ms", d1, d2)
	}
	// Script exhausted: back to the auto-step.
	s3 := c.Now()
	if d := Since(c, s3); d != time.Microsecond {
		t.Errorf("post-script region measured %v, want 1µs", d)
	}
}

func TestFakeClockAdvance(t *testing.T) {
	c := NewFakeClock()
	t0 := c.Now()
	c.Advance(time.Hour)
	if d := c.Now().Sub(t0); d != time.Hour {
		t.Errorf("Advance moved %v, want 1h", d)
	}
}

func TestMeasureUsesInjectedClock(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(2 * time.Millisecond)
	ran := false
	secs := Measure(c, func() { ran = true })
	if !ran {
		t.Fatal("Measure did not run fn")
	}
	if secs != 0.002 {
		t.Errorf("Measure = %g s, want exactly 0.002", secs)
	}
	// nil clock falls back to the wall clock and still runs fn.
	if s := Measure(nil, func() {}); s < 0 {
		t.Errorf("wall-clock Measure negative: %g", s)
	}
}

// TestMeasuredOracleScriptedClock checks that the measuring oracle becomes
// fully deterministic under a fake clock: every measurement (conversion,
// SpMV, features) reports exactly the scripted auto-step.
func TestMeasuredOracleScriptedClock(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(4 * time.Millisecond)
	opt := DefaultMeasureOptions()
	opt.Reps = 3
	opt.Clock = c
	o := NewMeasuredOracle(opt)

	a := testTriDiag(t, 64)
	if s, ok := o.ConvertTime(a, sparse.FmtELL); !ok || s != 0.004 {
		t.Errorf("ConvertTime = %g, %v; want exactly 0.004, true", s, ok)
	}
	if s, ok := o.SpMVTime(a, sparse.FmtELL); !ok || s != 0.004 {
		t.Errorf("SpMVTime = %g, %v; want exactly 0.004, true", s, ok)
	}
	if s := o.FeatureTime(a); s != 0.004 {
		t.Errorf("FeatureTime = %g, want exactly 0.004", s)
	}
	// CSR conversion is free by definition, fake clock or not.
	if s, ok := o.ConvertTime(a, sparse.FmtCSR); !ok || s != 0 {
		t.Errorf("CSR ConvertTime = %g, %v; want 0, true", s, ok)
	}
}

// TestMeasuredOracleMenu: the measuring oracle prices exactly
// sparse.MeasuredMenu. A study-only format is answered ok = false before any
// clock read or conversion; every menu format is priced on a matrix that
// admits them all; and once a pair's SpMV time is cached the oracle no
// longer holds that pair's converted matrix.
func TestMeasuredOracleMenu(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(time.Millisecond)
	opt := DefaultMeasureOptions()
	opt.Reps = 3
	opt.Clock = c
	o := NewMeasuredOracle(opt)
	a := testTriDiag(t, 64)

	// COO converts here, so only the menu can refuse it; BSR and CSR5 are
	// priced only and convert nowhere.
	if !sparse.CanConvert(a, sparse.FmtCOO, opt.Lim) {
		t.Fatal("COO refused by the limits: the test would not see the menu")
	}
	for _, f := range []sparse.Format{sparse.FmtCOO, sparse.FmtBSR, sparse.FmtCSR5} {
		if _, ok := o.ConvertTime(a, f); ok {
			t.Errorf("%v: conversion priced, want ok = false", f)
		}
		if _, ok := o.SpMVTime(a, f); ok {
			t.Errorf("%v: SpMV priced, want ok = false", f)
		}
	}
	if n := c.NowCalls(); n != 0 {
		t.Errorf("study-only formats read the clock %d times, want 0", n)
	}
	if n := len(o.converts); n != 0 {
		t.Errorf("study-only formats left %d converted matrices behind, want none built", n)
	}

	for _, f := range sparse.MeasuredMenu {
		wantConv := 0.001
		if f == sparse.FmtCSR {
			wantConv = 0
		}
		if s, ok := o.ConvertTime(a, f); !ok || s != wantConv {
			t.Errorf("%v: ConvertTime = %g, %v; want exactly %g, true", f, s, ok, wantConv)
		}
		if s, ok := o.SpMVTime(a, f); !ok || s != 0.001 {
			t.Errorf("%v: SpMVTime = %g, %v; want exactly 0.001, true", f, s, ok)
		}
		if n := len(o.converts); n != 0 {
			t.Errorf("%v: oracle still holds %d converted matrices after caching the SpMV time", f, n)
		}
		calls := c.NowCalls()
		if s, ok := o.SpMVTime(a, f); !ok || s != 0.001 || c.NowCalls() != calls {
			t.Errorf("%v: second SpMVTime = %g, %v with %d more clock reads; want the cached 0.001",
				f, s, ok, c.NowCalls()-calls)
		}
	}
}

// TestMeasuredOracleConcurrentSamePair: the oracle is shared (Oracle
// implementations must be safe for concurrent use), and dropping a converted
// matrix after its first SpMV measurement must not starve a second caller
// that was measuring the same pair at the same time, nor leave a matrix
// parked that no later call will collect.
func TestMeasuredOracleConcurrentSamePair(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(time.Millisecond)
	opt := DefaultMeasureOptions()
	opt.Reps = 1
	opt.Clock = c
	o := NewMeasuredOracle(opt)
	a := testTriDiag(t, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range sparse.MeasuredMenu {
				if _, ok := o.ConvertTime(a, f); !ok {
					t.Errorf("%v: ConvertTime not ok", f)
				}
				// Concurrent readers share the fake clock, so a region may
				// span several steps: only ok and positivity are scripted.
				if s, ok := o.SpMVTime(a, f); !ok || s <= 0 {
					t.Errorf("%v: SpMVTime = %g, %v; want > 0, true", f, s, ok)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(o.converts); n != 0 {
		t.Errorf("%d converted matrices still parked after every pair was timed", n)
	}
}

// testTriDiag builds a small tridiagonal CSR for clock tests.
func testTriDiag(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	ptr := make([]int, n+1)
	var col []int32
	var data []float64
	for i := 0; i < n; i++ {
		for j := i - 1; j <= i+1; j++ {
			if j < 0 || j >= n {
				continue
			}
			col = append(col, int32(j))
			data = append(data, 1+float64(i+j)*0.01)
		}
		ptr[i+1] = len(data)
	}
	m, err := sparse.NewCSR(n, n, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
