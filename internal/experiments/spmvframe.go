package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sparse"
)

// ---------------------------------------------------------------------------
// E2 — Table III: conversion cost in units of CSR SpMV calls.

// Table3Row is one format's conversion-cost distribution over the corpus.
type Table3Row struct {
	Format            sparse.Format
	NumValid          int
	Min, Median, Max  float64 // conversion time / CSR SpMV time
	MeanNormalization float64 // mean of the same ratio
}

// Table3 measures (through the oracle — "this part uses no prediction but
// actual performance measurements") how many CSR SpMV calls each conversion
// costs, reproducing the paper's Table III whose reported range is 9-270.
type Table3 struct {
	Rows []Table3Row
}

// RunTable3 computes the conversion-cost table on the evaluation corpus.
func (c *Context) RunTable3() *Table3 {
	out := &Table3{}
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		var ratios []float64
		for _, s := range c.EvalSamples {
			if v, ok := s.ConvNorm[f]; ok {
				ratios = append(ratios, v)
			}
		}
		if len(ratios) == 0 {
			continue
		}
		sort.Float64s(ratios)
		var mean float64
		for _, v := range ratios {
			mean += v
		}
		mean /= float64(len(ratios))
		out.Rows = append(out.Rows, Table3Row{
			Format:            f,
			NumValid:          len(ratios),
			Min:               ratios[0],
			Median:            ratios[len(ratios)/2],
			Max:               ratios[len(ratios)-1],
			MeanNormalization: mean,
		})
	}
	return out
}

// Render prints the table.
func (t *Table3) Render() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Format.String(),
			fmt.Sprintf("%d", r.NumValid),
			fmt.Sprintf("%.1f", r.Min),
			fmt.Sprintf("%.1f", r.Median),
			fmt.Sprintf("%.1f", r.Max),
			fmt.Sprintf("%.1f", r.MeanNormalization),
		})
	}
	return "Table III: format conversion cost, in equivalent CSR SpMV calls\n" +
		table([]string{"Format", "#valid", "min", "median", "max", "mean"}, rows)
}

// ---------------------------------------------------------------------------
// E3 — Table IV: matrices favoring each format, overhead-oblivious vs
// overhead-conscious at different loop lengths.

// Table4 counts, for each format, how many evaluation matrices favor it
// under the overhead-oblivious criterion (min SpMV time) and under the
// overhead-conscious criterion at Iter = 100 and Iter = 1000 — the paper's
// Table IV. Oracle costs, no prediction.
type Table4 struct {
	Iters []float64
	OO    map[sparse.Format]int
	OC    map[float64]map[sparse.Format]int
}

// RunTable4 computes the favorite-format distribution.
func (c *Context) RunTable4(iters ...float64) *Table4 {
	if len(iters) == 0 {
		iters = []float64{100, 1000}
	}
	out := &Table4{
		Iters: iters,
		OO:    make(map[sparse.Format]int),
		OC:    make(map[float64]map[sparse.Format]int),
	}
	for _, it := range iters {
		out.OC[it] = make(map[sparse.Format]int)
	}
	for _, s := range c.EvalSamples {
		out.OO[core.OverheadObliviousDecide(s.SpMVNorm)]++
		for _, it := range iters {
			out.OC[it][core.OracleDecide(s.ConvNorm, s.SpMVNorm, it)]++
		}
	}
	return out
}

// Render prints the table.
func (t *Table4) Render() string {
	header := []string{"Format", "OO"}
	for _, it := range t.Iters {
		header = append(header, fmt.Sprintf("OC(Iter=%g)", it))
	}
	var rows [][]string
	for _, f := range sparse.AllFormats {
		row := []string{f.String(), fmt.Sprintf("%d", t.OO[f])}
		any := t.OO[f] > 0
		for _, it := range t.Iters {
			n := t.OC[it][f]
			row = append(row, fmt.Sprintf("%d", n))
			any = any || n > 0
		}
		if any {
			rows = append(rows, row)
		}
	}
	return "Table IV: number of matrices favoring each format\n" +
		table(header, rows)
}

// ---------------------------------------------------------------------------
// E5 — Figure 5: SpMVframe speedups vs loop iteration count.

// Fig5Point is one iteration-count group of bars.
type Fig5Point struct {
	Iters float64
	// SpeedupOC is the geometric-mean speedup of the trained predictors
	// (prediction overhead included).
	SpeedupOC float64
	// UBOC is the overhead-conscious upper bound (perfect predictions).
	UBOC float64
	// UBOO is the overhead-oblivious upper bound (true fastest-SpMV format,
	// conversion cost still paid, as in the paper).
	UBOO float64
}

// Fig5 reproduces Figure 5 on the SpMVframe workload: a loop of N SpMV
// calls around one matrix, swept over N. Baseline is CSR with no
// conversion.
type Fig5 struct {
	Points []Fig5Point
}

// RunFig5 sweeps the iteration counts (defaults match the regime the paper
// plots: short loops where OO slows down through long loops where
// conversion always pays).
func (c *Context) RunFig5(iters ...float64) *Fig5 {
	if len(iters) == 0 {
		iters = []float64{10, 50, 100, 500, 1000, 5000}
	}
	out := &Fig5{}
	for _, it := range iters {
		var oc, uboc, uboo []float64
		for i := range c.EvalSamples {
			s := &c.EvalSamples[i]
			m := c.EvalEntries[i].Matrix
			price := func(f sparse.Format, overhead float64) float64 {
				return it / core.Cost(s.ConvNorm, s.SpMVNorm, f, it, 0, overhead)
			}

			// Trained OC: SpMVframe knows its loop bound, so N is the
			// forecast and the pipeline decides before the first call,
			// through the gates core.Adaptive runs.
			f, overhead := sparse.FmtCSR, 0.0
			gate := core.GateInput{Total: int(it), SpMVSeconds: s.CSRTime, NNZ: m.NNZ()}
			if remaining, _, run := core.Gates(gate); run {
				f, overhead = c.decide(s, m, remaining), c.stage2Norm(s)
			}
			oc = append(oc, price(f, overhead))

			// Upper bound OC: oracle cost-benefit, no prediction overhead.
			uboc = append(uboc, price(core.OracleDecide(s.ConvNorm, s.SpMVNorm, it), 0))

			// Upper bound OO: true fastest-SpMV format; its conversion must
			// still happen at runtime.
			uboo = append(uboo, price(core.OverheadObliviousDecide(s.SpMVNorm), 0))
		}
		out.Points = append(out.Points, Fig5Point{
			Iters:     it,
			SpeedupOC: geomean(oc),
			UBOC:      geomean(uboc),
			UBOO:      geomean(uboo),
		})
	}
	return out
}

// Render prints the figure as a table of bar heights.
func (f *Fig5) Render() string {
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%g", p.Iters),
			fmt.Sprintf("%.3f", p.SpeedupOC),
			fmt.Sprintf("%.3f", p.UBOC),
			fmt.Sprintf("%.3f", p.UBOO),
		})
	}
	return "Figure 5: SpMVframe speedups over CSR baseline (geometric mean)\n" +
		table([]string{"Iters", "SpeedupOC", "UB_OC", "UB_OO"}, rows)
}

// CheckShape verifies the qualitative claims of Figure 5: OO's upper bound
// must cause slowdowns at the shortest loop length, OC must never fall
// meaningfully below 1, and OC must dominate OO everywhere. Returns nil
// when the shape holds.
func (f *Fig5) CheckShape() error {
	if len(f.Points) == 0 {
		return fmt.Errorf("fig5: empty")
	}
	first := f.Points[0]
	if first.UBOO >= 1 {
		return fmt.Errorf("fig5: UB_OO = %.3f at Iters=%g, expected < 1 (slowdown)", first.UBOO, first.Iters)
	}
	for _, p := range f.Points {
		if p.UBOC < 1-1e-9 {
			return fmt.Errorf("fig5: UB_OC = %.3f < 1 at Iters=%g", p.UBOC, p.Iters)
		}
		if p.SpeedupOC < 0.95 {
			return fmt.Errorf("fig5: SpeedupOC = %.3f at Iters=%g", p.SpeedupOC, p.Iters)
		}
		if p.UBOC+1e-9 < p.UBOO && math.Abs(p.UBOC-p.UBOO) > 1e-6 {
			return fmt.Errorf("fig5: UB_OC %.3f below UB_OO %.3f at Iters=%g", p.UBOC, p.UBOO, p.Iters)
		}
	}
	return nil
}
