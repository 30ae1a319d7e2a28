package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gbt"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// ---------------------------------------------------------------------------
// A1 — implicit vs explicit overhead treatment (§III-A).
//
// The implicit design trains, per format, a single model that maps
// (matrix features, loop length) directly to the amortized overall cost.
// The explicit design (the paper's choice) decomposes the cost into the
// separately-predicted conversion and SpMV terms. This ablation compares
// the two on held-out matrices: agreement with the oracle's format choice
// and the realized speedup of each scheme's selections.

// AblationImplicit holds the comparison results.
type AblationImplicit struct {
	Iters []float64
	// Agreement with the oracle-optimal format, per scheme.
	ExplicitAgreement, ImplicitAgreement float64
	// Geometric-mean realized speedup of each scheme's selections.
	ExplicitSpeedup, ImplicitSpeedup float64
}

// implicitTrainIters are the loop lengths the implicit model sees during
// training.
var implicitTrainIters = []float64{10, 30, 100, 300, 1000, 3000}

// RunAblationImplicit trains the implicit models on the training corpus and
// compares both schemes on the evaluation corpus.
func (c *Context) RunAblationImplicit(iters ...float64) (*AblationImplicit, error) {
	if len(iters) == 0 {
		iters = []float64{20, 100, 500, 2000}
	}
	// Train the implicit per-format models: features + log(iters) ->
	// amortized cost (total cost / iters), which keeps the target scale
	// bounded across loop lengths.
	implicit := make(map[sparse.Format]*gbt.Model)
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		ds := &gbt.Dataset{}
		for _, s := range c.TrainSamples {
			conv, okc := s.ConvNorm[f]
			spmv, oks := s.SpMVNorm[f]
			if !okc || !oks {
				continue
			}
			for _, it := range implicitTrainIters {
				row := append(append([]float64(nil), s.Features...), math.Log(it))
				ds.X = append(ds.X, row)
				ds.Y = append(ds.Y, conv/it+spmv)
			}
		}
		if len(ds.Y) < 5*len(implicitTrainIters) {
			continue
		}
		m, err := gbt.Train(ds, c.Opt.Params)
		if err != nil {
			return nil, fmt.Errorf("experiments: implicit model %v: %w", f, err)
		}
		implicit[f] = m
	}

	out := &AblationImplicit{Iters: iters}
	var expAgree, impAgree, total float64
	var expSp, impSp []float64
	for i := range c.EvalSamples {
		s := &c.EvalSamples[i]
		entry := c.EvalEntries[i]
		for _, it := range iters {
			oracleF := core.OracleDecide(s.ConvNorm, s.SpMVNorm, it)

			// Explicit scheme.
			dExp := c.decideOC(entry, s, it)
			fExp := dExp.Format

			// Implicit scheme: argmin over format models of amortized cost.
			fImp := sparse.FmtCSR
			bestAmortized := 1.0 // CSR amortized cost is exactly 1 per iteration
			for f, m := range implicit {
				if _, ok := s.SpMVNorm[f]; !ok {
					continue
				}
				row := append(append([]float64(nil), s.Features...), math.Log(it))
				if v := m.Predict(row); v < bestAmortized {
					bestAmortized = v
					fImp = f
				}
			}

			total++
			if fExp == oracleF {
				expAgree++
			}
			if fImp == oracleF {
				impAgree++
			}
			expSp = append(expSp, it/realizedCost(s, fExp, it))
			impSp = append(impSp, it/realizedCost(s, fImp, it))
		}
	}
	out.ExplicitAgreement = expAgree / total
	out.ImplicitAgreement = impAgree / total
	out.ExplicitSpeedup = geomean(expSp)
	out.ImplicitSpeedup = geomean(impSp)
	return out, nil
}

// realizedCost prices a chosen format with the true (oracle) costs.
func realizedCost(s *trainer.Sample, f sparse.Format, it float64) float64 {
	if f == sparse.FmtCSR {
		return it
	}
	conv, okc := s.ConvNorm[f]
	spmv, oks := s.SpMVNorm[f]
	if !okc || !oks {
		return it
	}
	return conv + spmv*it
}

// Render prints the comparison.
func (a *AblationImplicit) Render() string {
	return fmt.Sprintf(`Ablation A1: implicit vs explicit overhead treatment
oracle-agreement  explicit %.1f%%  implicit %.1f%%
realized speedup  explicit %.3fx  implicit %.3fx
`, 100*a.ExplicitAgreement, 100*a.ImplicitAgreement, a.ExplicitSpeedup, a.ImplicitSpeedup)
}

// ---------------------------------------------------------------------------
// A2 — the lazy-and-light gate switched off.
//
// Without the two-stage gate, the selector pays feature extraction and
// model inference on every run, including runs whose loops are too short
// for any conversion to pay off — the chicken-egg dilemma of §III-B. The
// ablation simulates both variants over the four applications.

// AblationGateRow compares gated vs ungated for one application.
type AblationGateRow struct {
	App AppKind
	// Speedups (geometric mean over runs).
	Gated, Ungated float64
	// Worst per-run speedup under each variant.
	GatedWorst, UngatedWorst float64
}

// AblationGate is the gate on/off comparison.
type AblationGate struct {
	Rows []AblationGateRow
	// AssumedHorizon is the remaining-iterations guess the ungated variant
	// must use (it decides before observing the loop).
	AssumedHorizon float64
}

// RunAblationGate simulates both variants.
func (c *Context) RunAblationGate(assumedHorizon float64) (*AblationGate, error) {
	if assumedHorizon <= 0 {
		assumedHorizon = 1000
	}
	out := &AblationGate{AssumedHorizon: assumedHorizon}
	for _, app := range AllApps {
		sim, err := c.RunApp(app)
		if err != nil {
			return nil, err
		}
		row := AblationGateRow{App: app, GatedWorst: math.Inf(1), UngatedWorst: math.Inf(1)}
		var gated, ungated []float64
		for _, o := range sim.Outcomes {
			s := &o.Trace.Sample
			w := o.Trace.App.SpMVPerIter()
			n := float64(o.Trace.Iterations)

			g := o.Baseline / o.OCCost
			gated = append(gated, g)
			if g < row.GatedWorst {
				row.GatedWorst = g
			}

			// Ungated: decide at iteration 0 with the assumed horizon,
			// always paying the prediction overhead.
			d := c.Preds.Decide(featureSet(s), blocksOf(o.Trace.Operand, c.Opt.Cfg.Lim.BSRBlockSize), assumedHorizon*w, c.Opt.Cfg.Lim, c.Opt.Cfg.Margin)
			predn := s.FeatureNorm + c.Opt.Stage2ModelSeconds/s.CSRTime
			cost := predn + realizedCost(s, d.Format, n*w)
			u := o.Baseline / cost
			ungated = append(ungated, u)
			if u < row.UngatedWorst {
				row.UngatedWorst = u
			}
		}
		row.Gated = geomean(gated)
		row.Ungated = geomean(ungated)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the comparison.
func (a *AblationGate) Render() string {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.App.String(),
			fmt.Sprintf("%.3f", r.Gated),
			fmt.Sprintf("%.3f", r.GatedWorst),
			fmt.Sprintf("%.3f", r.Ungated),
			fmt.Sprintf("%.3f", r.UngatedWorst),
		})
	}
	return fmt.Sprintf("Ablation A2: lazy-and-light gate on/off (ungated assumes %g remaining iterations)\n", a.AssumedHorizon) +
		table([]string{"Application", "Gated", "Gated worst", "Ungated", "Ungated worst"}, rows)
}

// ---------------------------------------------------------------------------
// A3 — normalized vs absolute prediction targets (§IV-C's normalization
// observation).

// AblationNormalizeRow compares CV errors of normalized vs absolute targets
// for one format.
type AblationNormalizeRow struct {
	Format sparse.Format
	// Mean relative CV error of the SpMV-time model under each target.
	NormalizedErr, AbsoluteErr float64
}

// AblationNormalize is the normalization ablation.
type AblationNormalize struct {
	Rows []AblationNormalizeRow
}

// RunAblationNormalize cross-validates SpMV-time models trained on
// normalized targets (T_spmv(f)/T_spmv(CSR)) against models trained on
// absolute seconds.
func (c *Context) RunAblationNormalize() (*AblationNormalize, error) {
	all := append(append([]trainer.Sample(nil), c.TrainSamples...), c.EvalSamples...)
	out := &AblationNormalize{}
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		norm := &gbt.Dataset{}
		abs := &gbt.Dataset{}
		for _, s := range all {
			v, ok := s.SpMVNorm[f]
			if !ok {
				continue
			}
			norm.X = append(norm.X, s.Features)
			norm.Y = append(norm.Y, v)
			abs.X = append(abs.X, s.Features)
			abs.Y = append(abs.Y, v*s.CSRTime)
		}
		if len(norm.Y) < 10 {
			continue
		}
		ncv, err := gbt.KFold(norm, 5, c.Opt.Params, c.Opt.Seed, 1e-3)
		if err != nil {
			return nil, err
		}
		// The absolute targets live on a tiny scale (seconds); the error
		// floor must scale accordingly or every error would vanish into it.
		acv, err := gbt.KFold(abs, 5, c.Opt.Params, c.Opt.Seed, 1e-9)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AblationNormalizeRow{
			Format:        f,
			NormalizedErr: ncv.MeanRel,
			AbsoluteErr:   acv.MeanRel,
		})
	}
	return out, nil
}

// Render prints the comparison.
func (a *AblationNormalize) Render() string {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			formatName(r.Format),
			fmt.Sprintf("%.1f%%", 100*r.NormalizedErr),
			fmt.Sprintf("%.1f%%", 100*r.AbsoluteErr),
		})
	}
	return "Ablation A3: CV relative error, normalized vs absolute SpMV-time targets\n" +
		table([]string{"Format", "Normalized", "Absolute"}, rows)
}
