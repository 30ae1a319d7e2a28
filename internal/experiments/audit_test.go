package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// auditCells splits the rendered table into a header and one cell map per
// row, keyed by column name.
func auditCells(t *testing.T, out string) (header []string, rows []map[string]string) {
	t.Helper()
	split := func(line string) []string {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		return cells
	}
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "| ") {
			lines = append(lines, l)
		}
	}
	if len(lines) < 1 {
		t.Fatalf("no table in\n%s", out)
	}
	header = split(lines[0])
	for _, l := range lines[1:] {
		cells := split(l)
		if len(cells) != len(header) {
			t.Fatalf("row %q has %d cells, header %d", l, len(cells), len(header))
		}
		row := map[string]string{}
		for i, h := range header {
			row[h] = cells[i]
		}
		rows = append(rows, row)
	}
	return header, rows
}

// TestAudit on the model oracle, which is deterministic: the argmin column is
// core.OracleDecide at every N up to the cap, each cell's break-even is
// ⌈conv/(1−x)⌉ (∞ when x ≥ 1), and a format the limits refuse a class is "—".
func TestAudit(t *testing.T) {
	classes := panel(300, 3000)
	audit, err := RunAudit(timing.NewModelOracle(), classes)
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Rows) != len(classes) {
		t.Fatalf("%d rows for %d classes", len(audit.Rows), len(classes))
	}
	_, rendered := auditCells(t, audit.Render())
	argminCol := fmt.Sprintf("argmin as N grows (N ≤ %d)", auditMaxN)
	crossovers := 0
	for i, r := range audit.Rows {
		cells := rendered[i]
		if cells["class"] != "`"+classes[i].Name+"`" {
			t.Errorf("row %d is %s, want class %s", i, cells["class"], classes[i].Name)
		}
		at := 0
		for n := 1; n <= auditMaxN; n++ {
			for at+1 < len(r.Argmin) && r.Argmin[at+1].From <= n {
				at++
			}
			if want := core.OracleDecide(r.Conv, r.SpMV, float64(n)); r.Argmin[at].Format != want {
				t.Fatalf("%s: argmin at N=%d is %v, OracleDecide says %v", r.Class, n, r.Argmin[at].Format, want)
			}
		}
		crossovers += len(r.Argmin) - 1
		if !strings.HasPrefix(cells[argminCol], r.Argmin[0].Format.String()) ||
			strings.Count(cells[argminCol], "→") != len(r.Argmin)-1 {
			t.Errorf("%s: argmin cell %q does not render %v", r.Class, cells[argminCol], r.Argmin)
		}
		if want := core.OverheadObliviousDecide(r.SpMV); r.Oblivious != want || cells["oblivious"] != want.String() {
			t.Errorf("%s: oblivious %v (cell %q), want %v", r.Class, r.Oblivious, cells["oblivious"], want)
		}
		for _, f := range sparse.AllFormats[1:] {
			cell, shown := cells[f.String()]
			if !shown {
				continue
			}
			x, priced := r.SpMV[f]
			if !priced {
				if cell != "—" {
					t.Errorf("%s/%v: unpriced, cell %q", r.Class, f, cell)
				}
				continue
			}
			conv := r.Conv[f]
			be := "∞"
			if x < 1 {
				be = fmt.Sprintf("%.0f", math.Ceil(conv/(1-x)))
			}
			if want := fmt.Sprintf("%.2f · %.1f · %s", x, conv, be); cell != want {
				t.Errorf("%s/%v: cell %q, want %q", r.Class, f, cell, want)
			}
		}
	}
	if crossovers == 0 {
		t.Error("no class's argmin ever leaves CSR: the argmin check saw nothing")
	}
	for i, s := range classes {
		if s.Family == matgen.FamRandom && rendered[i]["DIA"] != "—" {
			t.Errorf("%s: DIA cell %q, want — (the limits refuse it)", s.Name, rendered[i]["DIA"])
		}
	}
}

// TestAuditMeasuredCalls: through the measuring oracle each class costs
// exactly auditCalls Costs calls' worth of clock reads — 2·Reps for CSR's
// SpMV and 2·Reps each for the conversion and SpMV of every menu format the
// limits admit — and every menu format gets a column.
func TestAuditMeasuredCalls(t *testing.T) {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	const reps = 2
	o := timing.NewMeasuredOracle(timing.MeasureOptions{Reps: reps, Clock: clk})
	all := &Audit{}
	for _, s := range panel(300, 3000) {
		a, err := matgen.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for _, f := range sparse.MeasuredMenu[1:] {
			if sparse.CanConvert(a, f, sparse.DefaultLimits) {
				admitted++
			}
		}
		before := clk.NowCalls()
		audit, err := RunAudit(o, []matgen.Spec{s})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := clk.NowCalls()-before, auditCalls*2*reps*(1+2*admitted); got != want {
			t.Errorf("%s: %d clock reads, want %d Costs calls × 2·%d·(1 + 2·%d) = %d", s.Name, got, auditCalls, reps, admitted, want)
		}
		all.Rows = append(all.Rows, audit.Rows...)
	}
	header, _ := auditCells(t, all.Render())
	for _, f := range sparse.MeasuredMenu[1:] {
		if !strings.Contains(strings.Join(header, "|"), "|"+f.String()+"|") {
			t.Errorf("menu format %v has no column in %v", f, header)
		}
	}
}
