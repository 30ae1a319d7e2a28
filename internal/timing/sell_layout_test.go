package timing_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// TestModelOraclePricesTheBuiltSELLLayout: the model oracle prices the
// layout NewSELLFromCSR builds, slot for slot and slice for slice, on the
// pathological catalog and on the home-turf panel, whose power laws take a
// sigma past the ladder's first rung.
func TestModelOraclePricesTheBuiltSELLLayout(t *testing.T) {
	cases := check.Pathological(7)
	for _, s := range experiments.Panel() {
		a, err := matgen.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, check.Case{Name: s.Name, A: a})
	}
	wide := 0
	for _, c := range cases {
		m, err := sparse.NewSELLFromCSR(c.A)
		if err != nil {
			t.Fatal(err)
		}
		slots, slices := timing.SELLPriced(c.A)
		if slots != len(m.Data) || slices != m.NumSlices() {
			t.Errorf("%s: priced %d slots in %d slices, built %d in %d", c.Name, slots, slices, len(m.Data), m.NumSlices())
		}
		if m.Sigma > 64 {
			wide++
		}
	}
	if wide == 0 {
		t.Error("no case built a window past the first rung")
	}
}
