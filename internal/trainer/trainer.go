// Package trainer turns a matrix corpus plus a cost oracle into the
// selector's trained predictor bundle, following §IV-C of the paper: for
// every matrix it extracts the Table I features and the two normalized
// targets per format (conversion time and SpMV time, both divided by the
// matrix's CSR SpMV time) and Train fits one gradient-boosted regression
// model per (target, format) pair. Evaluate scores the same models by k-fold
// cross validation (5-fold for the paper's Table V). Collection prices only
// what the models learn: the feature-extraction cost the experiments charge
// to T_predict (Sample.FeatureNorm) is theirs to fill.
package trainer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// Sample is the training record of one matrix.
type Sample struct {
	// Name identifies the matrix (for reports).
	Name string
	// Features is the Table I feature vector.
	Features []float64
	// CSRTime is the absolute per-call CSR SpMV time in seconds (the
	// normalization denominator).
	CSRTime float64
	// ConvNorm[f] = T_convert(CSR->f) / CSRTime, present only for formats
	// valid for this matrix.
	ConvNorm map[sparse.Format]float64
	// SpMVNorm[f] = T_spmv(f) / CSRTime, present only for valid formats.
	// CSR is always present with a value near 1.
	SpMVNorm map[sparse.Format]float64
	// FeatureNorm = T_featureExtraction / CSRTime, the T_predict component
	// of the cost simulations. No model trains on it, so Collect leaves it
	// zero; experiments.NewContext fills it from the same oracle.
	FeatureNorm float64
}

// Collect measures (or models, depending on the oracle) every corpus entry.
// Matrices whose CSR SpMV time comes back non-positive are skipped.
func Collect(entries []matgen.Entry, oracle timing.Oracle) ([]Sample, error) {
	samples := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s, err := CollectOne(e.Spec.Name, e.Matrix, oracle)
		if err != nil {
			continue
		}
		samples = append(samples, s)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("trainer: no usable samples in corpus of %d entries", len(entries))
	}
	return samples, nil
}

// CollectOne builds the sample of a single matrix: one Costs call, each
// price divided by the CSR SpMV time.
func CollectOne(name string, m *sparse.CSR, oracle timing.Oracle) (Sample, error) {
	c := oracle.Costs(m)
	if c.CSR <= 0 {
		return Sample{}, fmt.Errorf("trainer: no CSR SpMV time for %q", name)
	}
	s := Sample{
		Name:     name,
		Features: features.Extract(m).Vector(),
		CSRTime:  c.CSR,
		ConvNorm: make(map[sparse.Format]float64, len(c.Convert)),
		SpMVNorm: map[sparse.Format]float64{sparse.FmtCSR: 1},
	}
	for f, conv := range c.Convert {
		s.ConvNorm[f] = conv / c.CSR
		s.SpMVNorm[f] = c.SpMV[f] / c.CSR
	}
	return s, nil
}

// Datasets extracts the per-format training sets from the samples.
func Datasets(samples []Sample) (conv, spmv map[sparse.Format]*gbt.Dataset) {
	conv = make(map[sparse.Format]*gbt.Dataset)
	spmv = make(map[sparse.Format]*gbt.Dataset)
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		c := &gbt.Dataset{}
		s := &gbt.Dataset{}
		for _, smp := range samples {
			if v, ok := smp.ConvNorm[f]; ok {
				c.X = append(c.X, smp.Features)
				c.Y = append(c.Y, v)
			}
			if v, ok := smp.SpMVNorm[f]; ok {
				s.X = append(s.X, smp.Features)
				s.Y = append(s.Y, v)
			}
		}
		if len(c.Y) > 0 {
			conv[f] = c
		}
		if len(s.Y) > 0 {
			spmv[f] = s
		}
	}
	return conv, spmv
}

// Train fits the full predictor bundle. Formats with fewer than minSamples
// valid matrices are skipped (the selector then never picks them), matching
// the paper's "only valid runs are considered". The (target, format) models
// are independent — each fit reads only its own dataset — so they are fitted
// concurrently on the worker team; the bundle is the one a sequential fit
// produces, bit for bit, at any worker count.
func Train(samples []Sample, p gbt.Params, minSamples int) (*core.Predictors, error) {
	if minSamples < 1 {
		minSamples = 1
	}
	convDS, spmvDS := Datasets(samples)
	preds := core.NewPredictors()
	type fit struct {
		f     sparse.Format
		kind  string
		ds    *gbt.Dataset
		into  map[sparse.Format]*gbt.Model
		model *gbt.Model
		err   error
	}
	var fits []fit
	for _, f := range sparse.AllFormats {
		cds, sds := convDS[f], spmvDS[f]
		if cds == nil || sds == nil || len(cds.Y) < minSamples || len(sds.Y) < minSamples {
			continue // CSR has no datasets: it needs no models
		}
		fits = append(fits,
			fit{f: f, kind: "conversion", ds: cds, into: preds.ConvTime},
			fit{f: f, kind: "SpMV", ds: sds, into: preds.SpMVTime})
	}
	if len(fits) == 0 {
		return nil, fmt.Errorf("trainer: no format had >= %d valid samples", minSamples)
	}
	parallel.ForEach(len(fits), func(i int) {
		fits[i].model, fits[i].err = gbt.Train(fits[i].ds, p)
	})
	for _, ft := range fits {
		if ft.err != nil {
			return nil, fmt.Errorf("trainer: %s model for %v: %w", ft.kind, ft.f, ft.err)
		}
		ft.into[ft.f] = ft.model
	}
	return preds, nil
}

// EvalRow is one row of the paper's Table V: per-format cross-validated
// relative errors of the two predictors.
type EvalRow struct {
	Format    sparse.Format
	NumValid  int
	ConvError float64 // mean relative error of normalized conversion time
	SpMVError float64 // mean relative error of normalized SpMV time
}

// relErrFloor guards the relative-error denominator against near-zero
// normalized times.
const relErrFloor = 1e-3

// Evaluate runs k-fold cross validation per format and returns Table V.
func Evaluate(samples []Sample, k int, p gbt.Params, seed int64) ([]EvalRow, error) {
	convDS, spmvDS := Datasets(samples)
	var rows []EvalRow
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		cds, sds := convDS[f], spmvDS[f]
		if cds == nil || sds == nil || len(cds.Y) < k || len(sds.Y) < k {
			continue
		}
		ccv, err := gbt.KFold(cds, k, p, seed, relErrFloor)
		if err != nil {
			return nil, fmt.Errorf("trainer: CV of conversion model for %v: %w", f, err)
		}
		scv, err := gbt.KFold(sds, k, p, seed, relErrFloor)
		if err != nil {
			return nil, fmt.Errorf("trainer: CV of SpMV model for %v: %w", f, err)
		}
		rows = append(rows, EvalRow{
			Format:    f,
			NumValid:  len(cds.Y),
			ConvError: ccv.MeanRel,
			SpMVError: scv.MeanRel,
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trainer: no format had enough samples for %d-fold CV", k)
	}
	return rows, nil
}
