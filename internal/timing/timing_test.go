package timing

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func genMatrix(t testing.TB, fam matgen.Family, size int, seed int64) *sparse.CSR {
	t.Helper()
	m, err := matgen.Generate(matgen.Spec{Name: "t", Family: fam, Size: size, Degree: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelOracleDeterministic(t *testing.T) {
	m := genMatrix(t, matgen.FamRandom, 500, 1)
	o1 := NewModelOracle()
	o2 := NewModelOracle()
	c1, c2 := o1.Costs(m), o2.Costs(m)
	if c1.CSR != c2.CSR || !maps.Equal(c1.Convert, c2.Convert) || !maps.Equal(c1.SpMV, c2.SpMV) {
		t.Errorf("Costs not deterministic: %+v vs %+v", c1, c2)
	}
	if o1.FeatureTime(m) != o2.FeatureTime(m) {
		t.Error("FeatureTime not deterministic")
	}
}

func TestModelOracleShape(t *testing.T) {
	o := NewModelOracle()
	o.Noise = 0

	// Banded matrix: DIA must beat CSR per call.
	banded := o.Costs(genMatrix(t, matgen.FamBanded, 3000, 2))
	diaT, ok := banded.SpMV[sparse.FmtDIA]
	if !ok {
		t.Fatal("DIA rejected a banded matrix")
	}
	if diaT >= banded.CSR {
		t.Errorf("DIA %g >= CSR %g on banded matrix", diaT, banded.CSR)
	}

	// Scatter matrix: DIA must be invalid.
	scatter := o.Costs(genMatrix(t, matgen.FamRandom, 3000, 3))
	if _, ok := scatter.SpMV[sparse.FmtDIA]; ok {
		t.Error("DIA accepted a scatter matrix under default limits")
	}

	// Block matrix: BSR must beat CSR.
	block := o.Costs(genMatrix(t, matgen.FamBlock, 2048, 4))
	bsrT, ok := block.SpMV[sparse.FmtBSR]
	if !ok {
		t.Fatal("BSR rejected a block matrix")
	}
	if bsrT >= block.CSR {
		t.Errorf("BSR %g >= CSR %g on block matrix", bsrT, block.CSR)
	}

	// COO is never the fastest.
	if cooT := scatter.SpMV[sparse.FmtCOO]; cooT <= scatter.CSR {
		t.Errorf("COO %g <= CSR %g", cooT, scatter.CSR)
	}
}

func TestModelOracleConversionCostRegime(t *testing.T) {
	// The paper's Table III: conversion costs the equivalent of 9-270 SpMV
	// calls. Check the model lands in that decade range for typical
	// matrices (allowing some slack at both ends).
	o := NewModelOracle()
	o.Noise = 0
	for _, fam := range []matgen.Family{matgen.FamRandom, matgen.FamBanded, matgen.FamUniformRows, matgen.FamBlock} {
		c := o.Costs(genMatrix(t, fam, 5000, int64(fam)))
		for f, conv := range c.Convert {
			if ratio := conv / c.CSR; ratio < 1 || ratio > 500 {
				t.Errorf("%v/%v: conversion = %.1f SpMV calls, outside [1, 500]", fam, f, ratio)
			}
		}
	}
}

func TestModelOracleFeatureTimeBand(t *testing.T) {
	// Paper: feature extraction costs 2x-4x of a SpMV call. Allow 1-10x.
	o := NewModelOracle()
	o.Noise = 0
	m := genMatrix(t, matgen.FamRandom, 4000, 5)
	ratio := o.FeatureTime(m) / o.Costs(m).CSR
	if ratio < 1 || ratio > 10 {
		t.Errorf("feature extraction = %.1f SpMV calls, outside [1, 10]", ratio)
	}
}

func TestMeasuredOracleBasics(t *testing.T) {
	opt := DefaultMeasureOptions()
	opt.Reps = 3
	o := NewMeasuredOracle(opt)
	m := genMatrix(t, matgen.FamStencil2D, 2500, 6)

	c := o.Costs(m)
	if c.CSR <= 0 {
		t.Fatalf("CSR SpMV time %g", c.CSR)
	}
	if _, ok := c.Convert[sparse.FmtCSR]; ok {
		t.Error("CSR->CSR conversion priced")
	}
	diaConv, ok := c.Convert[sparse.FmtDIA]
	if !ok || diaConv <= 0 {
		t.Fatalf("stencil rejected by DIA: %v", ok)
	}
	if diaConv < c.CSR {
		t.Errorf("conversion (%g) cheaper than one SpMV (%g): implausible", diaConv, c.CSR)
	}
	if s := c.SpMV[sparse.FmtDIA]; s <= 0 {
		t.Errorf("DIA SpMV time %g", s)
	}
	if ft := o.FeatureTime(m); ft <= 0 {
		t.Errorf("feature time %g", ft)
	}
}

func TestMeasuredOracleRespectsLimits(t *testing.T) {
	o := NewMeasuredOracle(DefaultMeasureOptions())
	c := o.Costs(genMatrix(t, matgen.FamRandom, 2000, 7))
	if _, ok := c.Convert[sparse.FmtDIA]; ok {
		t.Error("measured oracle converted a scatter matrix to DIA")
	}
	if _, ok := c.SpMV[sparse.FmtDIA]; ok {
		t.Error("measured oracle timed DIA SpMV on an invalid matrix")
	}
}

func TestQuickModelOracleFiniteAndPositive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(8))}
	o := NewModelOracle()
	prop := func(seed int64, famRaw uint8) bool {
		fam := matgen.AllFamilies[int(famRaw)%len(matgen.AllFamilies)]
		m, err := matgen.Generate(matgen.Spec{Name: "q", Family: fam, Size: 400, Degree: 6, Seed: seed})
		if err != nil {
			return false
		}
		c := o.Costs(m)
		if c.CSR <= 0 {
			return false
		}
		for f, cv := range c.Convert {
			if cv < 0 || c.SpMV[f] <= 0 {
				return false
			}
		}
		return o.FeatureTime(m) > 0
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
