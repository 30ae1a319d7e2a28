package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mmio"
	"repro/internal/sparse"
)

// cmdFeatures prints the Table I feature vector of a matrix, with the
// extraction wall time (the T_predict component the paper measures).
func cmdFeatures(args []string) error {
	fs := flag.NewFlagSet("features", flag.ContinueOnError)
	matrixPath := fs.String("matrix", "", "Matrix Market file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *matrixPath == "" {
		return fmt.Errorf("features: -matrix is required")
	}
	a, err := readMatrix(*matrixPath)
	if err != nil {
		return err
	}
	start := time.Now()
	set := features.Extract(a)
	elapsed := time.Since(start)
	vec := set.Vector()
	for i, name := range features.Names {
		fmt.Printf("%-15s %g\n", name, vec[i])
	}
	fmt.Printf("\nextraction time: %v\n", elapsed.Round(time.Microsecond))
	return nil
}

// cmdPredict loads a predictor bundle and prints the stage-2 decision for a
// matrix at a given remaining-iterations horizon, next to the measured
// ground truth so the prediction quality is visible.
func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	matrixPath := fs.String("matrix", "", "Matrix Market file (required)")
	models := fs.String("models", "models", "predictor model directory")
	iters := fs.Float64("iters", 1000, "remaining SpMV calls to amortize over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *matrixPath == "" {
		return fmt.Errorf("predict: -matrix is required")
	}
	a, err := readMatrix(*matrixPath)
	if err != nil {
		return err
	}
	preds, err := loadPredictors(*models)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	set := features.Extract(a)
	blocks := features.CountBlocks(a, cfg.Lim.BSRBlockSize)
	d := preds.Decide(set, blocks, *iters, cfg.Lim, cfg.Margin)

	fmt.Printf("decision at %g remaining SpMV calls: %v\n\n", *iters, d.Format)
	fmt.Printf("%-6s %16s\n", "format", "predicted cost")
	type row struct {
		f sparse.Format
		c float64
	}
	var rows []row
	for fm, c := range d.PredictedCost {
		rows = append(rows, row{fm, c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].c < rows[j].c })
	for _, r := range rows {
		marker := ""
		if r.f == d.Format {
			marker = "  <- chosen"
		}
		fmt.Printf("%-6v %16.1f%s\n", r.f, r.c, marker)
	}
	return nil
}

// readMatrix reads a Matrix Market file.
func readMatrix(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mmio.Read(f)
}
