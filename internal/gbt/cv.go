package gbt

import (
	"fmt"
	"math/rand"
)

// FoldResult is the evaluation of one cross-validation fold.
type FoldResult struct {
	RMSE          float64
	RelativeError float64
}

// CVResult aggregates k folds.
type CVResult struct {
	Folds   []FoldResult
	MeanRel float64
	MeanRMS float64
}

// KFold runs k-fold cross validation (the paper uses 5-fold): the dataset is
// shuffled once with seed, split into k contiguous folds, and each fold is
// held out in turn. relFloor is the denominator floor for the relative-error
// metric.
func KFold(data *Dataset, k int, p Params, seed int64, relFloor float64) (*CVResult, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	n := len(data.Y)
	if k < 2 || k > n {
		return nil, fmt.Errorf("gbt: k = %d folds for %d rows", k, n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	res := &CVResult{}
	for fold := 0; fold < k; fold++ {
		lo := fold * n / k
		hi := (fold + 1) * n / k
		var trX, teX [][]float64
		var trY, teY []float64
		for pos, i := range perm {
			if pos >= lo && pos < hi {
				teX = append(teX, data.X[i])
				teY = append(teY, data.Y[i])
			} else {
				trX = append(trX, data.X[i])
				trY = append(trY, data.Y[i])
			}
		}
		m, err := Train(&Dataset{X: trX, Y: trY}, p)
		if err != nil {
			return nil, fmt.Errorf("gbt: fold %d: %w", fold, err)
		}
		pred := m.PredictBatch(teX)
		fr := FoldResult{
			RMSE:          RMSE(pred, teY),
			RelativeError: MeanRelativeError(pred, teY, relFloor),
		}
		res.Folds = append(res.Folds, fr)
		res.MeanRMS += fr.RMSE
		res.MeanRel += fr.RelativeError
	}
	res.MeanRMS /= float64(k)
	res.MeanRel /= float64(k)
	return res, nil
}
