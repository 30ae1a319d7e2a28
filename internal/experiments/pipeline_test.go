package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// TestSimulateAgreesWithAdaptive holds the simulated two-stage scheme to the
// selector that ships: on every trace of every app, a core.Adaptive on the
// trace's operand, fed the trace's counted SpMV calls and progress values
// under a fake clock that makes every SpMV cost the sample's CSR time, must
// run the same stages, forecast the same total, judge the same gates and
// pick the same format as Simulate on that trace. The CSR time is rounded to
// whole nanoseconds, the clock's resolution, on both sides.
func TestSimulateAgreesWithAdaptive(t *testing.T) {
	c := ctx(t)
	for _, app := range AllApps {
		sim, err := c.RunApp(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range sim.Outcomes {
			tr := *o.Trace
			step := time.Duration(math.Round(tr.Sample.CSRTime * 1e9))
			tr.Sample.CSRTime = step.Seconds()
			want := c.Simulate(&tr)

			clk := timing.NewFakeClock()
			clk.SetAutoStep(step)
			cfg := core.DefaultConfig()
			cfg.Clock = clk
			ad := core.NewAdaptive(tr.Operand, tr.Tol, c.Preds, cfg, false)
			replay(ad, &tr)
			st := ad.Stats()
			rec, _ := ad.Trace()

			name := app.String() + "/" + tr.Name
			if st.SpMVCalls != int64(tr.SpMVs) {
				t.Fatalf("%s: replay served %d SpMV calls, the solve issued %d", name, st.SpMVCalls, tr.SpMVs)
			}
			if st.Stage1Ran != want.Stage1Ran || st.PredictedTotal != want.PredictedTotal || st.Stage2Ran != want.Stage2Ran {
				t.Errorf("%s: adaptive stage1 %v total %d stage2 %v, simulated %v %d %v", name,
					st.Stage1Ran, st.PredictedTotal, st.Stage2Ran, want.Stage1Ran, want.PredictedTotal, want.Stage2Ran)
			}
			// The record's gates are core.Gates' followed, when stage 2 priced
			// an alternative, by the decision's margin inequality.
			gates := rec.Gates
			if n := len(gates); n > 0 && gates[n-1].Name == "stay_cost*(1-margin)>=best_alt" {
				gates = gates[:n-1]
			}
			if !sameGates(gates, want.Gates) {
				t.Errorf("%s: adaptive gates %+v, simulated %+v", name, gates, want.Gates)
			}
			// The decide stage names the argmin's pick, which Chosen falls
			// back from to CSR when the format has no conversion.
			got := sparse.FmtCSR.String()
			for _, s := range rec.Stages {
				if s.Name == "selector.decide" {
					got = s.Attrs["format"]
				}
			}
			if got != want.OCFormat.String() {
				t.Errorf("%s: adaptive picked %v, simulated %v", name, got, want.OCFormat)
			}
		}
	}
}

// replay drives ad through tr: before each progress value the SpMV calls the
// solve issued since the last one, and after the last value any calls the
// solve made before it ended.
func replay(ad *core.Adaptive, tr *Trace) {
	rows, cols := ad.Dims()
	x, y := make([]float64, cols), make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	done := 0
	spmv := func(upto int) {
		for ; done < upto; done++ {
			ad.SpMV(y, x)
		}
	}
	for i, p := range tr.Progress {
		spmv(tr.Calls[i])
		ad.RecordProgress(p)
	}
	spmv(tr.SpMVs)
}

// sameGates compares names and verdicts exactly and both sides to 1e-9
// relative: the wrapper's SpMV mean is a sum of equal steps over their
// count, which may sit an ulp off the step itself.
func sameGates(a, b []obs.GateCheck) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Passed != b[i].Passed || !near(a[i].LHS, b[i].LHS) || !near(a[i].RHS, b[i].RHS) {
			return false
		}
	}
	return true
}

// TestSimulateBoundsPerRun: on every run of every app, the overhead-conscious
// upper bound is at most both always-CSR and the overhead-oblivious pick, and
// the trained scheme, overhead charged, never beats its upper bound. Table
// VI's CheckShape asserts this only of the geomeans.
func TestSimulateBoundsPerRun(t *testing.T) {
	c := ctx(t)
	for _, app := range AllApps {
		sim, err := c.RunApp(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range sim.Outcomes {
			if o.UBOCCost > math.Min(o.Baseline, o.OOCost) {
				t.Errorf("%v/%s: UBOC %g above min(baseline %g, OO %g)", app, o.Trace.Name, o.UBOCCost, o.Baseline, o.OOCost)
			}
			if o.OCCost < o.UBOCCost-1e-9 {
				t.Errorf("%v/%s: OC %g below its upper bound %g", app, o.Trace.Name, o.OCCost, o.UBOCCost)
			}
		}
	}
}
