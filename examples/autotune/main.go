// Autotune: a SpMVframe-style exploration of where the best format
// crosses over as the loop length grows. For each of several structural
// families this example measures real conversion and per-call SpMV times on
// this machine and prints which format wins the *overall* time at each loop
// bound — reproducing the paper's core observation that the best format
// depends on how often you will use it.
package main

import (
	"fmt"
	"log"
	"slices"

	ocs "repro"
)

func main() {
	type workload struct {
		name string
		gen  func() (*ocs.CSRMatrix, error)
	}
	workloads := []workload{
		{"banded", func() (*ocs.CSRMatrix, error) { return ocs.BandedMatrix(8000, 7, 1) }},
		{"scatter", func() (*ocs.CSRMatrix, error) { return ocs.RandomMatrix(8000, 8000, 10, 2) }},
		{"powerlaw", func() (*ocs.CSRMatrix, error) { return ocs.PowerLawMatrix(8000, 10, 3) }},
	}
	loopBounds := []int{1, 10, 50, 200, 1000, 5000}

	for _, w := range workloads {
		a, err := w.gen()
		if err != nil {
			log.Fatal(err)
		}
		rows, cols := a.Dims()
		fmt.Printf("\n=== %s (%dx%d, nnz %d) ===\n", w.name, rows, cols, a.NNZ())

		costs, err := ocs.MeasureFormatCosts(a)
		if err != nil {
			log.Fatal(err)
		}
		// costs holds the measured-menu formats this matrix admits.
		formats := make([]ocs.Format, 0, len(costs))
		for f := range costs {
			formats = append(formats, f)
		}
		slices.Sort(formats)
		fmt.Printf("%-6s %14s %14s\n", "format", "convert(xSpMV)", "spmv(xCSR)")
		for _, f := range formats {
			fmt.Printf("%-6v %14.1f %14.3f\n", f, costs[f].ConvertNorm, costs[f].SpMVNorm)
		}

		fmt.Printf("\n%-8s %-8s %10s\n", "loops", "winner", "speedup")
		for _, n := range loopBounds {
			best := ocs.CSR
			bestCost := float64(n)
			for f, c := range costs {
				total := c.ConvertNorm + float64(n)*c.SpMVNorm
				if total < bestCost {
					bestCost = total
					best = f
				}
			}
			fmt.Printf("%-8d %-8v %9.2fx\n", n, best, float64(n)/bestCost)
		}
	}
}
