package timing

import (
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
	costs := o.Costs(a)
	if costs.CSR != 0.004 {
		t.Errorf("CSR SpMV = %g, want exactly 0.004", costs.CSR)
	}
	if s, ok := costs.Convert[sparse.FmtELL]; !ok || s != 0.004 {
		t.Errorf("ELL conversion = %g, %v; want exactly 0.004, true", s, ok)
	}
	if s, ok := costs.SpMV[sparse.FmtELL]; !ok || s != 0.004 {
		t.Errorf("ELL SpMV = %g, %v; want exactly 0.004, true", s, ok)
	}
	if s := o.FeatureTime(a); s != 0.004 {
		t.Errorf("FeatureTime = %g, want exactly 0.004", s)
	}
}

// TestMeasuredOracleMenu: one Costs call prices exactly sparse.MeasuredMenu,
// each region at the scripted step, on a matrix that admits every menu
// format and COO. It reads the clock 2·Reps times for CSR's SpMV and 2·Reps
// times each for every other menu format's conversion and SpMV, and no more:
// nothing is converted twice, CSR is not "converted" to itself, and a format
// off the menu costs no clock read.
func TestMeasuredOracleMenu(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(time.Millisecond)
	const reps = 3
	o := NewMeasuredOracle(MeasureOptions{Reps: reps, Clock: c})
	a := testTriDiag(t, 64)

	// COO converts here, so only the menu can refuse it; BSR and CSR5 are
	// priced only and convert nowhere.
	if !sparse.CanConvert(a, sparse.FmtCOO, sparse.DefaultLimits) {
		t.Fatal("COO refused by the limits: the test would not see the menu")
	}
	costs := o.Costs(a)
	if costs.CSR != 0.001 {
		t.Errorf("CSR SpMV = %g, want exactly 0.001", costs.CSR)
	}
	others := 0
	for _, f := range sparse.MeasuredMenu {
		if f == sparse.FmtCSR {
			continue
		}
		others++
		if s, ok := costs.Convert[f]; !ok || s != 0.001 {
			t.Errorf("%v: conversion = %g, %v; want exactly 0.001, true", f, s, ok)
		}
		if s, ok := costs.SpMV[f]; !ok || s != 0.001 {
			t.Errorf("%v: SpMV = %g, %v; want exactly 0.001, true", f, s, ok)
		}
	}
	for _, f := range []sparse.Format{sparse.FmtCSR, sparse.FmtCOO, sparse.FmtBSR, sparse.FmtCSR5, sparse.FmtJDS} {
		if _, ok := costs.Convert[f]; ok {
			t.Errorf("%v: conversion priced, want absent", f)
		}
		if _, ok := costs.SpMV[f]; ok {
			t.Errorf("%v: SpMV priced, want absent", f)
		}
	}
	if len(costs.Convert) != others || len(costs.SpMV) != others {
		t.Errorf("%d conversions and %d SpMVs priced, want %d each", len(costs.Convert), len(costs.SpMV), others)
	}
	if n := c.NowCalls(); others != 4 || n != 2*reps*(1+2*4) {
		t.Errorf("%d clock reads over %d non-CSR menu formats, want 2·%d·(1 + 2·4) = 54", n, others, reps)
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
