package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// ---------------------------------------------------------------------------
// The crossover audit (DESIGN.md §19): the paper's SpMVframe observation,
// that the best format is the T_convert + N·T_spmv argmin and so depends on
// how many calls remain, read off the home-turf panel. Every price comes from
// the oracle's Costs call, the one that labels the training data, and every
// pick from core.OracleDecide and core.OverheadObliviousDecide.

const (
	// auditCalls is how many Costs calls price each class. A row reports
	// their medians, and the spread of CSR's readings as its noise yardstick.
	auditCalls = 5
	// auditMaxN is the longest loop the argmin column reads.
	auditMaxN = 5000
)

// Panel is the home-turf panel the measured menu is judged by: five
// structural families, degree 10, seed 9, each at 30 000 rows (2-4 MB of
// CSR, inside the reference box's 4 MiB L2) and at 320 000 ("<family>-large",
// 1.6-3.2M nonzeros, 20-41 MB, streamed from past it), because SpMV format
// rankings invert across that boundary (Chen et al., arXiv:1805.11938). A
// spec's Name is its class name.
func Panel() []matgen.Spec { return panel(30_000, 320_000) }

func panel(size, large int) []matgen.Spec {
	var out []matgen.Spec
	for _, fam := range []matgen.Family{matgen.FamBanded, matgen.FamStencil2D, matgen.FamBlock, matgen.FamRandom, matgen.FamPowerLaw} {
		out = append(out,
			matgen.Spec{Name: fam.String(), Family: fam, Size: size, Degree: 10, Seed: 9},
			matgen.Spec{Name: fam.String() + "-large", Family: fam, Size: large, Degree: 10, Seed: 9})
	}
	return out
}

// AuditRow is one class priced.
type AuditRow struct {
	Class string
	NNZ   int
	// CSR is the median of CSR's SpMV readings in seconds; CSRLo and CSRHi
	// are its fastest and slowest reading as multiples of that median.
	CSR, CSRLo, CSRHi float64
	// Conv and SpMV are the median conversion and SpMV of every format
	// priced in every call, in CSR SpMVs; SpMV holds CSR at 1.
	Conv, SpMV map[sparse.Format]float64
	// Oblivious is the fastest per-call format, conversion ignored.
	Oblivious sparse.Format
	// Argmin is the overhead-conscious pick at N = 1…auditMaxN, one entry
	// per run of loop lengths with the same pick.
	Argmin []Crossover
}

// Crossover says Format is the argmin from loop length From on.
type Crossover struct {
	From   int
	Format sparse.Format
}

// Audit is the crossover table, one row per class.
type Audit struct{ Rows []AuditRow }

// RunAudit generates and audits each class in turn, so only one class's
// matrices are alive at a time.
func RunAudit(o timing.Oracle, classes []matgen.Spec) (*Audit, error) {
	out := &Audit{}
	for _, s := range classes {
		a, err := matgen.Generate(s)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AuditMatrix(o, s.Name, a))
	}
	return out, nil
}

// AuditMatrix prices a through auditCalls Costs calls and reads its picks.
func AuditMatrix(o timing.Oracle, name string, a *sparse.CSR) AuditRow {
	var calls []timing.Costs
	var csr []float64
	for range auditCalls {
		c := o.Costs(a)
		calls, csr = append(calls, c), append(csr, c.CSR)
	}
	r := AuditRow{Class: name, NNZ: a.NNZ(), CSR: median(csr),
		Conv: map[sparse.Format]float64{}, SpMV: map[sparse.Format]float64{sparse.FmtCSR: 1}}
	r.CSRLo, r.CSRHi = csr[0]/r.CSR, csr[len(csr)-1]/r.CSR
	for _, f := range sparse.AllFormats {
		var conv, spmv []float64
		for _, c := range calls {
			if v, ok := c.Convert[f]; ok {
				conv, spmv = append(conv, v), append(spmv, c.SpMV[f])
			}
		}
		if len(conv) < len(calls) {
			continue
		}
		r.Conv[f], r.SpMV[f] = median(conv)/r.CSR, median(spmv)/r.CSR
	}
	r.Oblivious = core.OverheadObliviousDecide(r.SpMV)
	for n := 1; n <= auditMaxN; n++ {
		f := core.OracleDecide(r.Conv, r.SpMV, float64(n))
		if len(r.Argmin) == 0 || r.Argmin[len(r.Argmin)-1].Format != f {
			r.Argmin = append(r.Argmin, Crossover{From: n, Format: f})
		}
	}
	return r
}

// median of xs, which it sorts: the middle element, the upper one of an
// even count, as timing's own medians take it.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// Render prints the table as markdown. The format columns are every format
// priced on some class, in AllFormats order. A cell is SpMV time as a
// multiple of CSR's · conversion in CSR SpMVs · break-even calls
// (⌈conv/(1−x)⌉, ∞ when x ≥ 1), or — where the format is unpriced.
func (a *Audit) Render() string {
	var cols []sparse.Format
	for _, f := range sparse.AllFormats[1:] {
		if slices.ContainsFunc(a.Rows, func(r AuditRow) bool { _, ok := r.Conv[f]; return ok }) {
			cols = append(cols, f)
		}
	}
	var b strings.Builder
	line := func(cells ...string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	fmt.Fprintf(&b, "Crossover audit: medians of %d Costs calls per class; cells are x of CSR · conversion in CSR SpMVs · break-even calls\n\n", auditCalls)
	header := []string{"class", "nnz", "CSR ns/nnz"}
	for _, f := range cols {
		header = append(header, f.String())
	}
	line(append(header, "oblivious", fmt.Sprintf("argmin as N grows (N ≤ %d)", auditMaxN))...)
	b.WriteString(strings.Repeat("|---", len(header)+2) + "|\n")
	for _, r := range a.Rows {
		cells := []string{"`" + r.Class + "`", fmt.Sprintf("%.2fM", float64(r.NNZ)/1e6),
			fmt.Sprintf("%.2f (x%.2f–%.2f)", r.CSR/float64(r.NNZ)*1e9, r.CSRLo, r.CSRHi)}
		for _, f := range cols {
			x, ok := r.SpMV[f]
			switch {
			case !ok:
				cells = append(cells, "—")
			case x >= 1:
				cells = append(cells, fmt.Sprintf("%.2f · %.1f · ∞", x, r.Conv[f]))
			default:
				cells = append(cells, fmt.Sprintf("%.2f · %.1f · %.0f", x, r.Conv[f], math.Ceil(r.Conv[f]/(1-x))))
			}
		}
		argmin := make([]string, len(r.Argmin))
		for i, c := range r.Argmin {
			argmin[i] = c.Format.String()
			if i > 0 {
				argmin[i] += fmt.Sprintf(" (N≥%d)", c.From)
			}
		}
		line(append(cells, r.Oblivious.String(), strings.Join(argmin, " → "))...)
	}
	return b.String()
}
