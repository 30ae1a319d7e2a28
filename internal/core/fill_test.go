package core_test

import (
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// TestStage2ValidityAgreesWithConversion: stage 2 judges DIA, ELL and BSR
// from extracted features, the conversions from the matrix itself, and the
// model oracle from its own statistics; all three ask sparse.Limits.Fits.
// On check's pathological catalog and the audit panel, stage 2 accepts
// exactly the DIA matrices CanConvert does (ELL and BSR are priced only, so
// CanConvert refuses them everywhere), and exactly the DIA, ELL and BSR
// matrices the model oracle prices.
func TestStage2ValidityAgreesWithConversion(t *testing.T) {
	lim := sparse.DefaultLimits
	model := timing.NewModelOracle()
	cases := check.Pathological(7)
	for _, spec := range experiments.Panel() {
		a, err := matgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, check.Case{Name: spec.Name, A: a})
	}
	rejected := map[sparse.Format]int{}
	for _, c := range cases {
		fs := features.Extract(c.A)
		blocks := features.CountBlocks(c.A, lim.BSRBlockSize)
		priced := model.Costs(c.A).SpMV
		for _, f := range []sparse.Format{sparse.FmtDIA, sparse.FmtELL, sparse.FmtBSR} {
			valid := core.FormatValid(f, fs, blocks, lim)
			if !valid {
				rejected[f]++
			}
			if slices.Contains(sparse.Implemented, f) {
				if can := sparse.CanConvert(c.A, f, lim); valid != can {
					t.Errorf("%s %v: stage 2 says valid=%v, CanConvert %v", c.Name, f, valid, can)
				}
			}
			if _, ok := priced[f]; valid != ok {
				t.Errorf("%s %v: stage 2 says valid=%v, the model oracle prices it: %v", c.Name, f, valid, ok)
			}
		}
	}
	// The catalog must exercise the rule both ways for each format.
	for _, f := range []sparse.Format{sparse.FmtDIA, sparse.FmtELL, sparse.FmtBSR} {
		if n := rejected[f]; n == 0 || n == len(cases) {
			t.Errorf("%v: %d of %d matrices rejected; the check decides nothing", f, n, len(cases))
		}
	}
}
