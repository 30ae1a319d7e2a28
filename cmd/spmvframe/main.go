// Command spmvframe is the paper's SpMVframe microbenchmark: a loop with an
// adjustable upper bound surrounding a single SpMV call. For a given matrix
// it measures, per format, the real conversion time and the per-call SpMV
// time on this machine, then prints the overall time of running the loop N
// times under (a) the CSR default, (b) the overhead-oblivious best-SpMV
// format, and (c) the overhead-conscious cost-benefit choice, for a sweep
// of N.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

func main() {
	matrixPath := flag.String("matrix", "", "Matrix Market file (default: a synthetic banded matrix)")
	family := flag.String("family", "banded", "synthetic family when -matrix is absent: "+familyNames())
	size := flag.Int("size", 4000, "synthetic matrix scale")
	seed := flag.Int64("seed", 1, "synthetic matrix seed")
	itersFlag := flag.String("iters", "10,50,100,500,1000,5000", "comma-separated loop bounds")
	reps := flag.Int("reps", 5, "timing repetitions (median reported)")
	flag.Parse()

	a, name, err := loadMatrix(*matrixPath, *family, *size, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvframe:", err)
		os.Exit(1)
	}
	rows, cols := a.Dims()
	fmt.Printf("matrix %s: %dx%d, %d nonzeros\n", name, rows, cols, a.NNZ())

	opt := timing.DefaultMeasureOptions()
	opt.Reps = *reps
	oracle := timing.NewMeasuredOracle(opt)
	sample, err := trainer.CollectOne(name, a, oracle)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmvframe:", err)
		os.Exit(1)
	}

	fmt.Printf("\nper-format costs (in CSR SpMV calls; CSR SpMV = %.3gus)\n", sample.CSRTime*1e6)
	fmt.Printf("%-6s %12s %12s\n", "format", "convert", "spmv/call")
	for _, f := range sparse.AllFormats {
		spmv, ok := sample.SpMVNorm[f]
		if !ok {
			// Off the measured menu, or refused by the storage limits.
			fmt.Printf("%-6s %12s %12s\n", f, "unpriced", "unpriced")
			continue
		}
		fmt.Printf("%-6s %12.1f %12.3f\n", f, sample.ConvNorm[f], spmv)
	}

	fmt.Printf("\n%-8s %-22s %-22s %10s %10s\n", "iters", "OO pick (speedup)", "OC pick (speedup)", "t_OO", "t_OC")
	for _, tok := range strings.Split(*itersFlag, ",") {
		n, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || n <= 0 {
			continue
		}
		base := n // CSR cost in SpMV units
		fOO := core.OverheadObliviousDecide(sample.SpMVNorm)
		costOO := sample.ConvNorm[fOO] + n*sample.SpMVNorm[fOO]
		fOC := core.OracleDecide(sample.ConvNorm, sample.SpMVNorm, n)
		costOC := sample.ConvNorm[fOC] + n*sample.SpMVNorm[fOC]
		fmt.Printf("%-8g %-22s %-22s %9.3gs %9.3gs\n",
			n,
			fmt.Sprintf("%v (%.2fx)", fOO, base/costOO),
			fmt.Sprintf("%v (%.2fx)", fOC, base/costOC),
			costOO*sample.CSRTime, costOC*sample.CSRTime)
	}
}

func familyNames() string {
	names := make([]string, len(matgen.AllFamilies))
	for i, f := range matgen.AllFamilies {
		names[i] = f.String()
	}
	return strings.Join(names, ", ")
}

func loadMatrix(path, family string, size int, seed int64) (*sparse.CSR, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		m, err := mmio.Read(f)
		return m, path, err
	}
	for _, fam := range matgen.AllFamilies {
		if fam.String() == family {
			m, err := matgen.Generate(matgen.Spec{Name: family, Family: fam, Size: size, Degree: 8, Seed: seed})
			return m, fmt.Sprintf("%s-%d", family, size), err
		}
	}
	return nil, "", fmt.Errorf("unknown family %q (want one of %s)", family, familyNames())
}
