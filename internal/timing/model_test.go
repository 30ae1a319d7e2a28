package timing

import (
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestModelOracleSELLCosts(t *testing.T) {
	o := NewModelOracle()
	o.Noise = 0
	m, err := matgen.Generate(matgen.Spec{Name: "pl", Family: matgen.FamPowerLaw, Size: 3000, Degree: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := o.Costs(m)
	spmv, ok := c.SpMV[sparse.FmtSELL]
	if !ok || spmv <= 0 {
		t.Fatalf("SELL SpMV time unavailable")
	}
	if conv := c.Convert[sparse.FmtSELL]; conv <= 0 {
		t.Fatalf("SELL conversion time unavailable")
	}
	// SELL bounds padding where plain ELL blows up: on a power-law matrix
	// SELL must be valid and its modeled cost finite while ELL is invalid.
	if _, ok := c.SpMV[sparse.FmtELL]; ok {
		t.Log("ELL unexpectedly valid for this power-law instance (acceptable)")
	}
	csr := c.CSR
	if spmv >= 2*csr {
		t.Errorf("SELL spmv %g not competitive with CSR %g on power-law", spmv, csr)
	}
}
