package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arima"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// SimOutcome is the simulated end-to-end cost of one application run under
// the three schemes the paper compares. All costs are in units of one CSR
// SpMV call on the operand matrix, so Baseline/Cost is the speedup.
type SimOutcome struct {
	Trace *Trace
	// Baseline is the default-CSR cost: iterations x SpMV-per-iter.
	Baseline float64
	// OOFormat/OOCost: the overhead-oblivious upper bound — convert to the
	// true fastest-SpMV format no matter what, conversion paid at runtime.
	OOFormat sparse.Format
	OOCost   float64
	// UBOCFormat/UBOCCost: the overhead-conscious upper bound — oracle
	// cost-benefit with perfect knowledge, no prediction overhead.
	UBOCFormat sparse.Format
	UBOCCost   float64
	// OCFormat/OCCost: the paper's actual two-stage scheme with trained
	// predictors, all overheads charged.
	OCFormat sparse.Format
	OCCost   float64
	// Stage bookkeeping for the stage-1 accuracy report.
	Stage1Ran      bool
	Stage2Ran      bool
	Converted      bool
	PredictedTotal int
}

// Simulate prices one trace under the three schemes.
func (c *Context) Simulate(tr *Trace) SimOutcome {
	s := &tr.Sample
	w := tr.App.SpMVPerIter()
	n := float64(tr.Iterations)
	out := SimOutcome{Trace: tr, Baseline: n * w}

	// Overhead-oblivious upper bound.
	out.OOFormat = core.OverheadObliviousDecide(s.SpMVNorm)
	out.OOCost = s.ConvNorm[out.OOFormat] + n*w*s.SpMVNorm[out.OOFormat]

	// Overhead-conscious upper bound.
	out.UBOCFormat = core.OracleDecide(s.ConvNorm, s.SpMVNorm, n*w)
	out.UBOCCost = s.ConvNorm[out.UBOCFormat] + n*w*s.SpMVNorm[out.UBOCFormat]

	// The real two-stage scheme.
	out.OCFormat = sparse.FmtCSR
	out.OCCost = out.Baseline
	k := c.Opt.Cfg.K
	if tr.Iterations < k {
		return out // lazy: the pipeline never woke up
	}
	stage1n := c.Opt.Stage1Seconds / s.CSRTime
	out.Stage1Ran = true
	predTotal, err := arima.DefaultTripcount().PredictTotal(tr.Progress[:k], tr.Tol)
	if err != nil {
		out.OCCost += stage1n
		return out
	}
	out.PredictedTotal = predTotal
	remaining := predTotal - k
	if remaining < c.Opt.Cfg.TH {
		out.OCCost += stage1n
		return out
	}
	// Overhead-conscious gate on stage 2 itself (mirrors core.Adaptive):
	// the known feature cost must be amortizable by the remaining work.
	if f := c.Opt.Cfg.GateOverheadFactor; f > 0 && float64(remaining)*w < f*s.FeatureNorm {
		out.OCCost += stage1n
		return out
	}
	out.Stage2Ran = true
	fs := features.FromVector(s.Features)
	blocks := features.CountBlocks(tr.Operand, c.Opt.Cfg.Lim.BSRBlockSize)
	d := c.Preds.Decide(fs, blocks, float64(remaining)*w, c.Opt.Cfg.Lim, c.Opt.Cfg.Margin)
	predn := s.FeatureNorm + c.Opt.Stage2ModelSeconds/s.CSRTime
	conv, okc := s.ConvNorm[d.Format]
	spmv, oks := s.SpMVNorm[d.Format]
	if d.Format == sparse.FmtCSR || !okc || !oks {
		out.OCCost = n*w + stage1n + predn
		return out
	}
	out.Converted = true
	out.OCFormat = d.Format
	out.OCCost = float64(k)*w + stage1n + predn + conv + (n-float64(k))*w*spmv
	return out
}

// AppSim is the full simulation of one application over a corpus.
type AppSim struct {
	App      AppKind
	Outcomes []SimOutcome
}

// RunApp builds traces for the app (PageRank uses the general evaluation
// corpus, the solvers use a dedicated SPD corpus) and simulates each. The
// result is cached: several experiments consume the same simulation.
func (c *Context) RunApp(app AppKind) (*AppSim, error) {
	if sim, ok := c.simCache[app]; ok {
		return sim, nil
	}
	sim, err := c.runAppUncached(app)
	if err != nil {
		return nil, err
	}
	if c.simCache == nil {
		c.simCache = make(map[AppKind]*AppSim)
	}
	c.simCache[app] = sim
	return sim, nil
}

func (c *Context) runAppUncached(app AppKind) (*AppSim, error) {
	entries := c.EvalEntries
	if app != AppPageRank {
		var err error
		entries, err = matgen.SolverCorpus(c.Opt.EvalCount/2, c.Opt.Seed+2, c.Opt.MinSize, c.Opt.MaxSize)
		if err != nil {
			return nil, err
		}
	}
	traces, err := c.BuildTraces(app, entries)
	if err != nil {
		return nil, err
	}
	sim := &AppSim{App: app}
	for i := range traces {
		sim.Outcomes = append(sim.Outcomes, c.Simulate(&traces[i]))
	}
	return sim, nil
}

// speedups extracts the per-run speedups of one scheme.
func (a *AppSim) speedups(cost func(SimOutcome) float64) []float64 {
	out := make([]float64, 0, len(a.Outcomes))
	for _, o := range a.Outcomes {
		out = append(out, o.Baseline/cost(o))
	}
	return out
}

// ---------------------------------------------------------------------------
// E7 — Table VI: whole-application speedups.

// Table6Row is one application's aggregate speedups.
type Table6Row struct {
	App       AppKind
	Runs      int
	UBOO      float64
	UBOC      float64
	SpeedupOC float64
	// IterMin/IterMax document the loop-tripcount range (the paper reports
	// e.g. PageRank [1, 93]).
	IterMin, IterMax int
}

// Table6 is the paper's headline result table.
type Table6 struct {
	Rows []Table6Row
}

// RunTable6 simulates all four applications.
func (c *Context) RunTable6() (*Table6, error) {
	out := &Table6{}
	for _, app := range AllApps {
		sim, err := c.RunApp(app)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v: %w", app, err)
		}
		row := Table6Row{App: app, Runs: len(sim.Outcomes), IterMin: math.MaxInt64}
		row.UBOO = geomean(sim.speedups(func(o SimOutcome) float64 { return o.OOCost }))
		row.UBOC = geomean(sim.speedups(func(o SimOutcome) float64 { return o.UBOCCost }))
		row.SpeedupOC = geomean(sim.speedups(func(o SimOutcome) float64 { return o.OCCost }))
		for _, o := range sim.Outcomes {
			if o.Trace.Iterations < row.IterMin {
				row.IterMin = o.Trace.Iterations
			}
			if o.Trace.Iterations > row.IterMax {
				row.IterMax = o.Trace.Iterations
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the table.
func (t *Table6) Render() string {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.App.String(),
			fmt.Sprintf("%d", r.Runs),
			fmt.Sprintf("[%d, %d]", r.IterMin, r.IterMax),
			fmt.Sprintf("%.4f", r.UBOO),
			fmt.Sprintf("%.4f", r.UBOC),
			fmt.Sprintf("%.4f", r.SpeedupOC),
		})
	}
	return "Table VI: whole-application speedups over the CSR default (geometric mean)\n" +
		table([]string{"Application", "Runs", "IterRange", "UB_OO", "UB_OC", "SpeedupOC"}, rows)
}

// CheckShape verifies the paper's qualitative claims for Table VI: the
// overhead-conscious scheme beats the overhead-oblivious upper bound for
// every application, never slows the application down on aggregate, and
// stays close to its own upper bound.
func (t *Table6) CheckShape() error {
	for _, r := range t.Rows {
		if r.SpeedupOC < 0.98 {
			return fmt.Errorf("table6: %v SpeedupOC = %.3f (aggregate slowdown)", r.App, r.SpeedupOC)
		}
		if r.SpeedupOC < r.UBOO-0.02 {
			return fmt.Errorf("table6: %v SpeedupOC %.3f below UB_OO %.3f", r.App, r.SpeedupOC, r.UBOO)
		}
		if r.SpeedupOC > r.UBOC+1e-6 {
			return fmt.Errorf("table6: %v SpeedupOC %.3f exceeds its upper bound %.3f", r.App, r.SpeedupOC, r.UBOC)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// E8 — Table VII: distribution of selected formats per application.

// Table7 counts the formats chosen by the overhead-oblivious baseline and
// by the overhead-conscious scheme for every application.
type Table7 struct {
	Apps []AppKind
	OO   map[AppKind]map[sparse.Format]int
	OC   map[AppKind]map[sparse.Format]int
}

// RunTable7 simulates all apps and tallies chosen formats.
func (c *Context) RunTable7() (*Table7, error) {
	out := &Table7{
		Apps: AllApps,
		OO:   make(map[AppKind]map[sparse.Format]int),
		OC:   make(map[AppKind]map[sparse.Format]int),
	}
	for _, app := range AllApps {
		sim, err := c.RunApp(app)
		if err != nil {
			return nil, err
		}
		out.OO[app] = make(map[sparse.Format]int)
		out.OC[app] = make(map[sparse.Format]int)
		for _, o := range sim.Outcomes {
			out.OO[app][o.OOFormat]++
			out.OC[app][o.OCFormat]++
		}
	}
	return out, nil
}

// Render prints the table.
func (t *Table7) Render() string {
	header := []string{"Format"}
	for _, app := range t.Apps {
		header = append(header, app.String()+"/OO", app.String()+"/OC")
	}
	var rows [][]string
	for _, f := range sparse.AllFormats {
		row := []string{formatName(f)}
		any := false
		for _, app := range t.Apps {
			oo := t.OO[app][f]
			oc := t.OC[app][f]
			row = append(row, fmt.Sprintf("%d", oo), fmt.Sprintf("%d", oc))
			any = any || oo > 0 || oc > 0
		}
		if any {
			rows = append(rows, row)
		}
	}
	return "Table VII: matrices favoring each format per application\n" +
		table(header, rows)
}

// ---------------------------------------------------------------------------
// E1 / E9 — Figures 2 and 6: PageRank speedup histograms.

// Histogram buckets per-run speedups.
type Histogram struct {
	Title   string
	Edges   []float64 // bucket edges; counts[i] covers [Edges[i], Edges[i+1])
	Counts  []int
	Minimum float64
	Maximum float64
}

// histEdges are the speedup buckets used by Figures 2 and 6.
var histEdges = []float64{0, 0.25, 0.5, 0.75, 0.95, 1.05, 1.25, 1.5, 2, math.Inf(1)}

func buildHistogram(title string, speedups []float64) *Histogram {
	h := &Histogram{
		Title:   title,
		Edges:   histEdges,
		Counts:  make([]int, len(histEdges)-1),
		Minimum: math.Inf(1),
		Maximum: math.Inf(-1),
	}
	for _, v := range speedups {
		if v < h.Minimum {
			h.Minimum = v
		}
		if v > h.Maximum {
			h.Maximum = v
		}
		idx := sort.SearchFloat64s(h.Edges, v)
		if idx > 0 {
			idx--
		}
		if idx >= len(h.Counts) {
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
	return h
}

// SlowdownFraction is the fraction of runs with speedup below the given
// threshold (Figure 2's point is that this is large for OO and Figure 6's
// that the OC selector drives it to near zero).
func (h *Histogram) SlowdownFraction(threshold float64) float64 {
	total, below := 0, 0
	for i, n := range h.Counts {
		total += n
		if h.Edges[i+1] <= threshold {
			below += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(below) / float64(total)
}

// Render prints the histogram with text bars.
func (h *Histogram) Render() string {
	var rows [][]string
	for i, n := range h.Counts {
		hi := fmt.Sprintf("%g", h.Edges[i+1])
		if math.IsInf(h.Edges[i+1], 1) {
			hi = "inf"
		}
		bar := ""
		for j := 0; j < n; j++ {
			bar += "#"
		}
		rows = append(rows, []string{
			fmt.Sprintf("[%g, %s)", h.Edges[i], hi),
			fmt.Sprintf("%d", n),
			bar,
		})
	}
	return h.Title + "\n" + table([]string{"Speedup", "Count", ""}, rows) +
		fmt.Sprintf("min %.3f  max %.3f\n", h.Minimum, h.Maximum)
}

// RunFig2 builds the histogram of PageRank speedups under the
// overhead-oblivious oracle selection (the paper's motivating Figure 2:
// even perfect OO predictions cause widespread slowdowns).
func (c *Context) RunFig2() (*Histogram, error) {
	sim, err := c.RunApp(AppPageRank)
	if err != nil {
		return nil, err
	}
	return buildHistogram(
		"Figure 2: PageRank overall speedups, oracle overhead-oblivious selection",
		sim.speedups(func(o SimOutcome) float64 { return o.OOCost })), nil
}

// RunFig6 builds the histogram of PageRank speedups under the trained
// overhead-conscious selector (the paper's Figure 6: slowdowns largely
// avoided).
func (c *Context) RunFig6() (*Histogram, error) {
	sim, err := c.RunApp(AppPageRank)
	if err != nil {
		return nil, err
	}
	return buildHistogram(
		"Figure 6: PageRank overall speedups, overhead-conscious selector",
		sim.speedups(func(o SimOutcome) float64 { return o.OCCost })), nil
}
