package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// ---------------------------------------------------------------------------
// E4 — Table V: cross-validated prediction errors of the primary predictors.

// Table5 wraps the trainer's per-format evaluation rows.
type Table5 struct {
	Rows []trainer.EvalRow
}

// RunTable5 runs 5-fold cross validation over the combined corpus (the
// paper evaluates its predictors over all valid matrices with 5-fold CV).
func (c *Context) RunTable5() (*Table5, error) {
	all := append(append([]trainer.Sample(nil), c.TrainSamples...), c.EvalSamples...)
	rows, err := trainer.Evaluate(all, 5, c.Opt.Params, c.Opt.Seed)
	if err != nil {
		return nil, err
	}
	return &Table5{Rows: rows}, nil
}

// Render prints the table.
func (t *Table5) Render() string {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Format.String(),
			fmt.Sprintf("%d", r.NumValid),
			fmt.Sprintf("%.1f%%", 100*r.ConvError),
			fmt.Sprintf("%.1f%%", 100*r.SpMVError),
		})
	}
	return "Table V: 5-fold CV relative errors of normalized conversion time and SpMV time\n" +
		table([]string{"Format", "#matrices", "Error(conv time)", "Error(SpMV time)"}, rows)
}

// ---------------------------------------------------------------------------
// E6 — Stage-1 tripcount prediction quality (§V-D text).

// Stage1Row reports the stage-1 predictor's quality on one application.
type Stage1Row struct {
	App AppKind
	// Runs is the number of runs where stage 1 fired (loop reached K).
	Runs int
	// ShortRuns is the number of runs the lazy scheme skipped entirely.
	ShortRuns int
	// MeanRelError is the mean |predicted - actual| / actual tripcount
	// error (the paper reports 17%-102% across the apps).
	MeanRelError float64
	// GateAccuracy is the fraction of runs where the predictor made the
	// right go/no-go call on "remaining >= TH" (the paper reports 65%-93%).
	GateAccuracy float64
}

// Stage1Report is the per-application stage-1 evaluation.
type Stage1Report struct {
	Rows []Stage1Row
}

// RunStage1 evaluates the lazy tripcount predictor inside all four apps.
func (c *Context) RunStage1() (*Stage1Report, error) {
	out := &Stage1Report{}
	// thPassed is core.Gates' remaining>=TH verdict (its first gate) on a
	// forecast total; a failed forecast counts as 0.
	thPassed := func(total int) bool {
		_, gates, _ := core.Gates(core.GateInput{Total: total, Iterations: core.K})
		return gates[0].Passed
	}
	for _, app := range AllApps {
		sim, err := c.RunApp(app)
		if err != nil {
			return nil, err
		}
		row := Stage1Row{App: app}
		correct := 0
		for _, o := range sim.Outcomes {
			if !o.Stage1Ran {
				row.ShortRuns++
				continue
			}
			row.Runs++
			actual := o.Trace.Iterations
			relErr := math.Abs(float64(o.PredictedTotal-actual)) / float64(actual)
			row.MeanRelError += relErr
			if thPassed(actual) == thPassed(o.PredictedTotal) {
				correct++
			}
		}
		if row.Runs > 0 {
			row.MeanRelError /= float64(row.Runs)
			row.GateAccuracy = float64(correct) / float64(row.Runs)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the report.
func (r *Stage1Report) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App.String(),
			fmt.Sprintf("%d", row.Runs),
			fmt.Sprintf("%d", row.ShortRuns),
			fmt.Sprintf("%.0f%%", 100*row.MeanRelError),
			fmt.Sprintf("%.0f%%", 100*row.GateAccuracy),
		})
	}
	return "Stage-1 lazy tripcount predictor (paper §V-D)\n" +
		table([]string{"Application", "Gated runs", "Short runs", "Tripcount error", "Gate accuracy"}, rows)
}

// ---------------------------------------------------------------------------
// E10 — Table VIII: per-matrix case studies.

// Table8Row is one case-study matrix.
type Table8Row struct {
	App       AppKind
	Name      string
	NNZ       int
	Rows      int
	Iters     int
	FormatOO  sparse.Format
	FormatOC  sparse.Format
	SpeedupOO float64
	SpeedupOC float64
}

// Table8 reproduces the paper's per-matrix comparison (its Table VIII).
type Table8 struct {
	Rows []Table8Row
}

// RunTable8 picks a spread of case studies — the largest and smallest
// matrices plus quartile picks from the PageRank and CG simulations — and
// reports both schemes' choices and speedups.
func (c *Context) RunTable8() (*Table8, error) {
	var all []SimOutcome
	for _, app := range []AppKind{AppPageRank, AppCG, AppBiCGSTAB} {
		sim, err := c.RunApp(app)
		if err != nil {
			return nil, err
		}
		all = append(all, sim.Outcomes...)
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].Trace.Operand.NNZ() > all[j].Trace.Operand.NNZ()
	})
	picks := quartilePicks(len(all), 6)
	out := &Table8{}
	for _, idx := range picks {
		o := all[idx]
		rows, _ := o.Trace.Operand.Dims()
		out.Rows = append(out.Rows, Table8Row{
			App:       o.Trace.App,
			Name:      o.Trace.Name,
			NNZ:       o.Trace.Operand.NNZ(),
			Rows:      rows,
			Iters:     o.Trace.Iterations,
			FormatOO:  o.OOFormat,
			FormatOC:  o.OCFormat,
			SpeedupOO: o.Baseline / o.OOCost,
			SpeedupOC: o.Baseline / o.OCCost,
		})
	}
	return out, nil
}

// quartilePicks selects up to k spread-out indices in [0, n).
func quartilePicks(n, k int) []int {
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, i*(n-1)/max(1, k-1))
	}
	// Deduplicate while preserving order.
	seen := map[int]bool{}
	uniq := out[:0]
	for _, v := range out {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// Render prints the table.
func (t *Table8) Render() string {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.App.String(),
			r.Name,
			fmt.Sprintf("%d", r.NNZ),
			fmt.Sprintf("%d", r.Rows),
			fmt.Sprintf("%d", r.Iters),
			r.FormatOO.String(),
			r.FormatOC.String(),
			fmt.Sprintf("%.3f", r.SpeedupOO),
			fmt.Sprintf("%.3f", r.SpeedupOC),
		})
	}
	return "Table VIII: case studies (Format/Speedup under oracle-OO vs the OC selector)\n" +
		table([]string{"App", "Matrix", "NNZ", "Rows", "Iters", "Fmt_OO", "Fmt_OC", "Speedup_OO", "Speedup_OC"}, rows)
}

// ---------------------------------------------------------------------------
// E11 — prediction overhead (§V-D closing text).

// OverheadReport summarizes the runtime overhead components: feature
// extraction relative to one SpMV call (the paper reports 2x-4x) and the
// constant model-inference times.
type OverheadReport struct {
	FeatureMin, FeatureMedian, FeatureMax float64 // in CSR SpMV calls
}

// RunOverhead summarizes prediction overheads over the evaluation corpus.
func (c *Context) RunOverhead() *OverheadReport {
	ratios := make([]float64, 0, len(c.EvalSamples))
	for _, s := range c.EvalSamples {
		ratios = append(ratios, s.FeatureNorm)
	}
	sort.Float64s(ratios)
	r := &OverheadReport{}
	if len(ratios) > 0 {
		r.FeatureMin = ratios[0]
		r.FeatureMedian = ratios[len(ratios)/2]
		r.FeatureMax = ratios[len(ratios)-1]
	}
	return r
}

// Render prints the report.
func (r *OverheadReport) Render() string {
	return fmt.Sprintf(`Prediction overhead (paper §V-D)
feature extraction: min %.1fx, median %.1fx, max %.1fx of one CSR SpMV call
stage-1 model inference: %.3f ms (constant)
stage-2 model inference: %.3f ms (constant)
`, r.FeatureMin, r.FeatureMedian, r.FeatureMax,
		stage1Seconds*1e3, stage2ModelSeconds*1e3)
}
