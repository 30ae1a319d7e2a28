package experiments

import (
	"strings"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// testContext builds a small, fast context on the model oracle, shared by
// all tests in the package (the build costs ~1s; the cache amortizes it).
var sharedCtx *Context

func ctx(t testing.TB) *Context {
	t.Helper()
	if sharedCtx != nil {
		return sharedCtx
	}
	opt := DefaultOptions()
	opt.TrainCount = 64
	opt.EvalCount = 32
	opt.MinSize = 400
	opt.MaxSize = 3000
	opt.Params.NumRounds = 40
	c, err := NewContext(opt, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	sharedCtx = c
	return c
}

func TestNewContextValidation(t *testing.T) {
	if _, err := NewContext(Options{}, timing.NewModelOracle()); err == nil {
		t.Error("empty options accepted")
	}
}

// TestContextFillsFeatureNorm: the trainer leaves FeatureNorm unset, so the
// context is what prices T_predict's feature share for every train and eval
// sample, and collectOne for the operands the app traces and the reorder
// ablation collect themselves — from the same oracle that priced the rest
// of the sample.
func TestContextFillsFeatureNorm(t *testing.T) {
	c := ctx(t)
	e := c.EvalEntries[0]
	if s, err := collectOne(e.Spec.Name, e.Matrix, c.Oracle); err != nil || s.FeatureNorm != c.EvalSamples[0].FeatureNorm {
		t.Errorf("collectOne: FeatureNorm %g (err %v), the context's %g", s.FeatureNorm, err, c.EvalSamples[0].FeatureNorm)
	}
	for _, set := range []struct {
		entries []matgen.Entry
		samples []trainer.Sample
	}{{c.TrainEntries, c.TrainSamples}, {c.EvalEntries, c.EvalSamples}} {
		if len(set.samples) != len(set.entries) {
			t.Fatalf("%d samples from %d entries", len(set.samples), len(set.entries))
		}
		for i, s := range set.samples {
			want := c.Oracle.FeatureTime(set.entries[i].Matrix) / s.CSRTime
			if s.FeatureNorm <= 0 || s.FeatureNorm != want {
				t.Errorf("%s: FeatureNorm %g, want %g", s.Name, s.FeatureNorm, want)
			}
		}
	}
}

func TestTable3ConversionCostRegime(t *testing.T) {
	c := ctx(t)
	t3 := c.RunTable3()
	if len(t3.Rows) < 4 {
		t.Fatalf("only %d formats in Table III", len(t3.Rows))
	}
	for _, r := range t3.Rows {
		if r.Min <= 0 || r.Median < r.Min || r.Max < r.Median {
			t.Errorf("%v: broken distribution %g/%g/%g", r.Format, r.Min, r.Median, r.Max)
		}
		// The paper's regime: conversions cost many SpMV calls.
		if r.Median < 2 {
			t.Errorf("%v: median conversion %.1f SpMV calls, implausibly cheap", r.Format, r.Median)
		}
	}
	if !strings.Contains(t3.Render(), "Table III") {
		t.Error("render missing title")
	}
}

func TestTable4DistributionShifts(t *testing.T) {
	c := ctx(t)
	t4 := c.RunTable4()
	// The whole point of Table IV: the OO distribution differs from the OC
	// ones, and OC(100) favors CSR more than OO does.
	totalOO := 0
	for _, n := range t4.OO {
		totalOO += n
	}
	if totalOO != len(c.EvalSamples) {
		t.Fatalf("OO counts %d, want %d", totalOO, len(c.EvalSamples))
	}
	if t4.OC[100][sparse.FmtCSR] < t4.OO[sparse.FmtCSR] {
		t.Errorf("OC(100) favors CSR for %d matrices, OO for %d; overhead should push toward CSR",
			t4.OC[100][sparse.FmtCSR], t4.OO[sparse.FmtCSR])
	}
	// With more iterations the conversion amortizes: CSR count must not grow.
	if t4.OC[1000][sparse.FmtCSR] > t4.OC[100][sparse.FmtCSR] {
		t.Errorf("OC CSR count grew with iterations: %d -> %d",
			t4.OC[100][sparse.FmtCSR], t4.OC[1000][sparse.FmtCSR])
	}
	_ = t4.Render()
}

func TestFig5Shape(t *testing.T) {
	c := ctx(t)
	f5 := c.RunFig5()
	if err := f5.CheckShape(); err != nil {
		t.Fatalf("%v\n%s", err, f5.Render())
	}
	// Speedups should grow (or at least not fall) with iteration count for
	// the OC schemes.
	for i := 1; i < len(f5.Points); i++ {
		if f5.Points[i].UBOC < f5.Points[i-1].UBOC-0.05 {
			t.Errorf("UB_OC fell from %.3f to %.3f between %g and %g iters",
				f5.Points[i-1].UBOC, f5.Points[i].UBOC,
				f5.Points[i-1].Iters, f5.Points[i].Iters)
		}
	}
}

func TestTable5PredictionErrors(t *testing.T) {
	c := ctx(t)
	t5, err := c.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) < 4 {
		t.Fatalf("only %d formats evaluated", len(t5.Rows))
	}
	for _, r := range t5.Rows {
		// The paper reports ~8-18% errors; on the smooth model oracle our
		// models should stay well under 60% even with the small corpus.
		if r.SpMVError > 0.6 || r.ConvError > 0.6 {
			t.Errorf("%v: CV errors conv=%.1f%% spmv=%.1f%%", r.Format, 100*r.ConvError, 100*r.SpMVError)
		}
	}
	_ = t5.Render()
}

func TestTable6HeadlineShape(t *testing.T) {
	c := ctx(t)
	t6, err := c.RunTable6()
	if err != nil {
		t.Fatal(err)
	}
	if err := t6.CheckShape(); err != nil {
		t.Fatalf("%v\n%s", err, t6.Render())
	}
	if len(t6.Rows) != 4 {
		t.Fatalf("%d app rows", len(t6.Rows))
	}
}

func TestTable7FormatsSumToRuns(t *testing.T) {
	c := ctx(t)
	t7, err := c.RunTable7()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range t7.Apps {
		sim, err := c.RunApp(app)
		if err != nil {
			t.Fatal(err)
		}
		oo, oc := 0, 0
		for _, n := range t7.OO[app] {
			oo += n
		}
		for _, n := range t7.OC[app] {
			oc += n
		}
		if oo != len(sim.Outcomes) || oc != len(sim.Outcomes) {
			t.Errorf("%v: OO %d, OC %d, runs %d", app, oo, oc, len(sim.Outcomes))
		}
	}
	_ = t7.Render()
}

func TestFig2VsFig6SlowdownAvoidance(t *testing.T) {
	c := ctx(t)
	f2, err := c.RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := c.RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	ooSlow := f2.SlowdownFraction(0.95)
	ocSlow := f6.SlowdownFraction(0.95)
	// Figure 2's point: OO causes real slowdowns. Figure 6's: OC avoids
	// the severe ones (the residual sub-1 cases are the mild cost of a
	// stage-2 prediction that decided to stay on CSR).
	if ooSlow == 0 {
		t.Errorf("OO selection produced no slowdowns at all; conversion overhead not biting\n%s", f2.Render())
	}
	if ocSlow > ooSlow {
		t.Errorf("OC slowdown fraction %.2f exceeds OO's %.2f", ocSlow, ooSlow)
	}
	if severe := f6.SlowdownFraction(0.75); severe > 0 {
		t.Errorf("OC produced severe slowdowns (fraction %.2f below 0.75x)\n%s", severe, f6.Render())
	}
	if f6.Minimum < 0.8 {
		t.Errorf("OC worst case %.3f, want >= 0.8\n%s", f6.Minimum, f6.Render())
	}
	if f2.Minimum > 0.75 {
		t.Errorf("OO worst case %.3f, expected a severe slowdown tail\n%s", f2.Minimum, f2.Render())
	}
}

func TestStage1Report(t *testing.T) {
	c := ctx(t)
	rep, err := c.RunStage1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Runs == 0 {
			t.Errorf("%v: stage 1 never ran", r.App)
			continue
		}
		if r.GateAccuracy < 0.5 {
			t.Errorf("%v: gate accuracy %.0f%%, worse than chance", r.App, 100*r.GateAccuracy)
		}
		if r.MeanRelError < 0 {
			t.Errorf("%v: negative error", r.App)
		}
	}
	_ = rep.Render()
}

func TestTable8CaseStudies(t *testing.T) {
	c := ctx(t)
	t8, err := c.RunTable8()
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) < 3 {
		t.Fatalf("only %d case studies", len(t8.Rows))
	}
	for _, r := range t8.Rows {
		if r.NNZ <= 0 || r.Iters <= 0 {
			t.Errorf("%s: NNZ %d iters %d", r.Name, r.NNZ, r.Iters)
		}
		if r.SpeedupOC <= 0 || r.SpeedupOO <= 0 {
			t.Errorf("%s: speedups %g/%g", r.Name, r.SpeedupOO, r.SpeedupOC)
		}
	}
	_ = t8.Render()
}

func TestOverheadReport(t *testing.T) {
	c := ctx(t)
	r := c.RunOverhead()
	if r.FeatureMin <= 0 || r.FeatureMedian < r.FeatureMin || r.FeatureMax < r.FeatureMedian {
		t.Errorf("feature overhead distribution broken: %g/%g/%g", r.FeatureMin, r.FeatureMedian, r.FeatureMax)
	}
	// Paper band: 2x-4x of a SpMV call; allow 1-10x for our kernels.
	if r.FeatureMedian < 1 || r.FeatureMedian > 10 {
		t.Errorf("median feature overhead %.1fx SpMV, outside [1, 10]", r.FeatureMedian)
	}
	_ = r.Render()
}

func TestAblationImplicit(t *testing.T) {
	c := ctx(t)
	a, err := c.RunAblationImplicit()
	if err != nil {
		t.Fatal(err)
	}
	if a.ExplicitAgreement <= 0 || a.ExplicitAgreement > 1 {
		t.Errorf("explicit agreement %g", a.ExplicitAgreement)
	}
	if a.ImplicitAgreement <= 0 || a.ImplicitAgreement > 1 {
		t.Errorf("implicit agreement %g", a.ImplicitAgreement)
	}
	// The explicit design is the paper's choice; it should not lose badly.
	if a.ExplicitSpeedup < a.ImplicitSpeedup-0.1 {
		t.Errorf("explicit speedup %.3f far below implicit %.3f", a.ExplicitSpeedup, a.ImplicitSpeedup)
	}
	_ = a.Render()
}

func TestAblationGate(t *testing.T) {
	c := ctx(t)
	a, err := c.RunAblationGate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 {
		t.Fatalf("%d rows", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.Gated <= 0 || r.Ungated <= 0 {
			t.Errorf("%v: speedups %g/%g", r.App, r.Gated, r.Ungated)
		}
		// The gate exists to bound the worst case.
		if r.GatedWorst < r.UngatedWorst-0.05 {
			t.Errorf("%v: gated worst %.3f below ungated worst %.3f", r.App, r.GatedWorst, r.UngatedWorst)
		}
	}
	_ = a.Render()
}

func TestAblationNormalize(t *testing.T) {
	c := ctx(t)
	a, err := c.RunAblationNormalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) < 4 {
		t.Fatalf("%d rows", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.NormalizedErr <= 0 || r.AbsoluteErr <= 0 {
			t.Errorf("%v: errors %g/%g", r.Format, r.NormalizedErr, r.AbsoluteErr)
		}
	}
	_ = a.Render()
}

func TestRendersAreNonEmpty(t *testing.T) {
	c := ctx(t)
	t3 := c.RunTable3()
	if len(t3.Render()) < 50 {
		t.Error("Table3 render too short")
	}
	f5 := c.RunFig5(10, 100)
	if !strings.Contains(f5.Render(), "SpeedupOC") {
		t.Error("Fig5 render missing column")
	}
	ov := c.RunOverhead()
	if !strings.Contains(ov.Render(), "feature extraction") {
		t.Error("overhead render missing line")
	}
}

func TestAblationSELL(t *testing.T) {
	c := ctx(t)
	a := c.RunAblationSELL()
	if len(a.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range a.Rows {
		if r.ExtendedPool < r.PaperPool-1e-9 {
			t.Errorf("iters=%g: extended pool %.3f worse than paper pool %.3f",
				r.Iters, r.ExtendedPool, r.PaperPool)
		}
		if r.PaperPool <= 0 {
			t.Errorf("iters=%g: paper pool speedup %g", r.Iters, r.PaperPool)
		}
	}
	_ = a.Render()
}

func TestCSVRenders(t *testing.T) {
	c := ctx(t)
	if out := c.RunTable3().CSV(); !strings.HasPrefix(out, "format,") {
		t.Errorf("Table3 CSV header: %q", out[:20])
	}
	f5 := c.RunFig5(10, 100)
	if out := f5.CSV(); !strings.HasPrefix(out, "iters,") || strings.Count(out, "\n") != 3 {
		t.Errorf("Fig5 CSV: %q", out)
	}
	t6, err := c.RunTable6()
	if err != nil {
		t.Fatal(err)
	}
	if out := t6.CSV(); strings.Count(out, "\n") != 5 {
		t.Errorf("Table6 CSV rows: %q", out)
	}
	h, err := c.RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if out := h.CSV(); !strings.Contains(out, "inf") {
		t.Errorf("Histogram CSV missing inf bucket: %q", out)
	}
	t5, err := c.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	if out := t5.CSV(); !strings.HasPrefix(out, "format,") {
		t.Errorf("Table5 CSV: %q", out[:20])
	}
}

func TestAblationReorder(t *testing.T) {
	c := ctx(t)
	a, err := c.RunAblationReorder()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Rows {
		if r.WithReorder < r.FormatsOnly-1e-9 {
			t.Errorf("iters=%g: reorder option made things worse: %.3f vs %.3f",
				r.Iters, r.WithReorder, r.FormatsOnly)
		}
		if r.ReorderWins < 0 || r.DIAUnlocked < 0 {
			t.Errorf("iters=%g: negative counts", r.Iters)
		}
	}
	_ = a.Render()
}

func TestSolverSelection(t *testing.T) {
	c := ctx(t)
	r, err := c.RunSolverSel()
	if err != nil {
		t.Fatal(err)
	}
	if r.EvalRuns == 0 {
		t.Fatal("no evaluation runs")
	}
	if r.Eval.CostRatio < 1-1e-9 {
		t.Errorf("cost ratio %.3f below 1", r.Eval.CostRatio)
	}
	if r.Eval.CostRatio > r.Eval.BaselineRatio+0.1 {
		t.Errorf("selector %.3f worse than fixed baseline %.3f", r.Eval.CostRatio, r.Eval.BaselineRatio)
	}
	_ = r.Render()
}
