package timing

import (
	"slices"
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
	if s, ok := costs.Convert[sparse.FmtSELL]; !ok || s != 0.004 {
		t.Errorf("SELL conversion = %g, %v; want exactly 0.004, true", s, ok)
	}
	if s, ok := costs.SpMV[sparse.FmtSELL]; !ok || s != 0.004 {
		t.Errorf("SELL SpMV = %g, %v; want exactly 0.004, true", s, ok)
	}
	if s := o.FeatureTime(a); s != 0.004 {
		t.Errorf("FeatureTime = %g, want exactly 0.004", s)
	}
}

// TestMeasuredOracleMenu: one Costs call prices exactly sparse.Implemented,
// each region at the scripted step, on a matrix that admits every built
// format. It reads the clock 2·Reps times for CSR's SpMV and 2·Reps times
// each for every other built format's conversion and SpMV, and no more:
// nothing is converted twice, CSR is not "converted" to itself, and a
// priced-only format costs no clock read.
func TestMeasuredOracleMenu(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoStep(time.Millisecond)
	const reps = 3
	o := NewMeasuredOracle(MeasureOptions{Reps: reps, Clock: c})
	a := testTriDiag(t, 64)

	costs := o.Costs(a)
	if costs.CSR != 0.001 {
		t.Errorf("CSR SpMV = %g, want exactly 0.001", costs.CSR)
	}
	others := sparse.Implemented[1:]
	for _, f := range sparse.AllFormats {
		conv, convOK := costs.Convert[f]
		spmv, spmvOK := costs.SpMV[f]
		if !slices.Contains(others, f) {
			if convOK || spmvOK {
				t.Errorf("%v: conversion or SpMV priced, want absent", f)
			}
			continue
		}
		if !sparse.CanConvert(a, f, sparse.DefaultLimits) {
			t.Fatalf("%v refused by the limits: the test would not see the menu", f)
		}
		if !convOK || conv != 0.001 || !spmvOK || spmv != 0.001 {
			t.Errorf("%v: conversion %g, %v and SpMV %g, %v; want exactly 0.001, true", f, conv, convOK, spmv, spmvOK)
		}
	}
	if len(costs.Convert) != len(others) || len(costs.SpMV) != len(others) {
		t.Errorf("%d conversions and %d SpMVs priced, want %d each", len(costs.Convert), len(costs.SpMV), len(others))
	}
	if n, want := c.NowCalls(), 2*reps*(1+2*len(others)); n != want {
		t.Errorf("%d clock reads over %d non-CSR built formats, want 2·%d·(1 + 2·%d) = %d", n, len(others), reps, len(others), want)
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
