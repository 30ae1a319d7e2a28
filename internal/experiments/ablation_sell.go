package experiments

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/sparse"
)

// ---------------------------------------------------------------------------
// A4 — value of extending the format pool (the paper's §V-A remark that the
// approach "can be easily extended to the selection of other formats").
//
// The ablation compares the oracle overhead-conscious selection restricted
// to the paper's seven formats against the same selection over the pool
// including SELL-C-sigma, across several loop lengths. Any gain is benefit
// the extension delivers without touching the selection machinery.

// AblationSELLRow is one loop-length comparison.
type AblationSELLRow struct {
	Iters float64
	// PaperPool / ExtendedPool are geometric-mean realized speedups.
	PaperPool, ExtendedPool float64
	// SELLWins counts matrices where SELL is the extended pool's choice.
	SELLWins int
}

// AblationSELL is the format-pool ablation result.
type AblationSELL struct {
	Rows []AblationSELLRow
}

// RunAblationSELL evaluates both pools with oracle costs on the evaluation
// corpus.
func (c *Context) RunAblationSELL(iters ...float64) *AblationSELL {
	if len(iters) == 0 {
		iters = []float64{50, 200, 1000, 5000}
	}
	out := &AblationSELL{}
	for _, it := range iters {
		row := AblationSELLRow{Iters: it}
		var paper, ext []float64
		for i := range c.EvalSamples {
			s := &c.EvalSamples[i]
			// The paper pool: OracleDecide skips a format with no conversion price.
			paperConv := maps.Clone(s.ConvNorm)
			maps.DeleteFunc(paperConv, func(f sparse.Format, _ float64) bool { return !slices.Contains(sparse.PaperFormats, f) })
			fPaper := core.OracleDecide(paperConv, s.SpMVNorm, it)
			fExt := core.OracleDecide(s.ConvNorm, s.SpMVNorm, it)
			paper = append(paper, it/core.Cost(s.ConvNorm, s.SpMVNorm, fPaper, it, 0, 0))
			ext = append(ext, it/core.Cost(s.ConvNorm, s.SpMVNorm, fExt, it, 0, 0))
			if fExt == sparse.FmtSELL {
				row.SELLWins++
			}
		}
		row.PaperPool = geomean(paper)
		row.ExtendedPool = geomean(ext)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render prints the comparison.
func (a *AblationSELL) Render() string {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", r.Iters),
			fmt.Sprintf("%.3f", r.PaperPool),
			fmt.Sprintf("%.3f", r.ExtendedPool),
			fmt.Sprintf("%d", r.SELLWins),
		})
	}
	return "Ablation A4: format pool with/without the SELL-C-sigma extension (oracle selection)\n" +
		table([]string{"Iters", "Paper pool", "With SELL", "SELL chosen"}, rows)
}
