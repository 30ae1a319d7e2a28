package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// cmdTrain trains the predictor bundle and persists it as JSON model files.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	out := fs.String("out", "models", "output directory for model files")
	count := fs.Int("count", 96, "corpus size")
	seed := fs.Int64("seed", 42, "corpus seed")
	minSize := fs.Int("min", 500, "minimum matrix scale")
	maxSize := fs.Int("max", 6000, "maximum matrix scale")
	oracleKind := fs.String("oracle", "measured", "cost oracle: measured (wall clock) or model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries, err := matgen.Corpus(matgen.CorpusConfig{
		Count: *count, Seed: *seed, MinSize: *minSize, MaxSize: *maxSize,
	})
	if err != nil {
		return err
	}
	var oracle timing.Oracle
	if *oracleKind == "model" {
		oracle = timing.NewModelOracle()
	} else {
		oracle = timing.NewMeasuredOracle(timing.DefaultMeasureOptions())
	}
	fmt.Fprintf(os.Stderr, "collecting costs for %d matrices (%s oracle)...\n", len(entries), *oracleKind)
	start := time.Now()
	samples, err := trainer.Collect(entries, oracle)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collected %d samples in %v; training...\n", len(samples), time.Since(start).Round(time.Millisecond))
	preds, err := trainer.Train(samples, gbt.DefaultParams(), 5)
	if err != nil {
		return err
	}
	rows, err := trainer.Evaluate(samples, 5, gbt.DefaultParams(), *seed)
	if err != nil {
		return err
	}
	man := trainer.Manifest{
		NumFeatures: features.NumFeatures,
		CorpusSeed:  *seed,
		CorpusCount: *count,
		Oracle:      *oracleKind,
	}
	for _, r := range rows {
		fmt.Printf("%-5s  %4d matrices  conv err %5.1f%%  spmv err %5.1f%%\n",
			r.Format, r.NumValid, 100*r.ConvError, 100*r.SpMVError)
		man.CVConvErrors = append(man.CVConvErrors, r.ConvError)
		man.CVSpMVErrors = append(man.CVSpMVErrors, r.SpMVError)
	}
	if err := trainer.SaveBundle(*out, preds, man); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "models written to %s/\n", *out)
	return nil
}

func loadPredictors(dir string) (*core.Predictors, error) {
	p, man, err := trainer.LoadBundle(dir, features.NumFeatures)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "loaded %d-format bundle trained %s (%s oracle)\n",
		len(man.Formats), man.CreatedAt, man.Oracle)
	return p, nil
}

// cmdRun executes one application on a Matrix Market file, optionally with
// the adaptive selector, and reports end-to-end time and selector activity.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	matrixPath := fs.String("matrix", "", "Matrix Market file (required)")
	app := fs.String("app", "cg", "application: pagerank, cg, bicgstab, gmres")
	models := fs.String("models", "", "predictor model directory (enables -adaptive)")
	adaptive := fs.Bool("adaptive", false, "use the overhead-conscious selector")
	trace := fs.Bool("trace", false, "print the selector's decision trace (with -adaptive)")
	tol := fs.Float64("tol", 1e-8, "solver tolerance")
	seed := fs.Int64("seed", 1, "rhs seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *matrixPath == "" {
		return fmt.Errorf("run: -matrix is required")
	}
	f, err := os.Open(*matrixPath)
	if err != nil {
		return err
	}
	a, err := mmio.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	rows, cols := a.Dims()
	fmt.Fprintf(os.Stderr, "%s: %dx%d, %d nonzeros\n", *matrixPath, rows, cols, a.NNZ())

	var preds *core.Predictors
	if *adaptive {
		if *models == "" {
			return fmt.Errorf("run: -adaptive requires -models")
		}
		preds, err = loadPredictors(*models)
		if err != nil {
			return err
		}
	}

	opt := apps.DefaultSolveOptions()
	opt.Tol = *tol
	rng := rand.New(rand.NewSource(*seed))
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	var op apps.Operator = apps.Par(a)
	var ad *core.Adaptive
	hook := apps.Hook(nil)
	absTol := *tol * nrm2(b)
	selCfg := core.DefaultConfig()
	var journal *obs.Journal
	if *trace {
		journal = obs.NewJournal(0)
		selCfg.Journal = journal
		selCfg.TraceLabel = *matrixPath
	}
	if *adaptive {
		if *app == "pagerank" {
			absTol = apps.DefaultPageRankOptions().Tol
		}
		ad = core.NewAdaptive(a, absTol, preds, selCfg, true)
		op = ad
		hook = func(it int, p float64) { ad.RecordProgress(p) }
	}

	start := time.Now()
	var res apps.Result
	switch *app {
	case "pagerank":
		p, dangling, errT := apps.BuildTransition(a)
		if errT != nil {
			return errT
		}
		prOp := apps.Operator(apps.Par(p))
		if *adaptive {
			ad = core.NewAdaptive(p, apps.DefaultPageRankOptions().Tol, preds, selCfg, true)
			prOp = ad
			hook = func(it int, pr float64) { ad.RecordProgress(pr) }
		}
		res, err = apps.PageRank(prOp, dangling, apps.DefaultPageRankOptions(), hook)
	case "cg":
		res, err = apps.CG(op, b, opt, hook)
	case "bicgstab":
		res, err = apps.BiCGSTAB(op, b, opt, hook)
	case "gmres":
		res, err = apps.GMRES(op, b, opt, hook)
	default:
		return fmt.Errorf("run: unknown app %q", *app)
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("app=%s converged=%v iterations=%d residual=%.3g elapsed=%v\n",
		*app, res.Converged, res.Iterations, res.Residual, elapsed.Round(time.Microsecond))
	if ad != nil {
		st := ad.Stats()
		fmt.Printf("selector: stage1=%v stage2=%v converted=%v format=%v predictedTotal=%d overhead=%.3gms\n",
			st.Stage1Ran, st.Stage2Ran, st.Converted, st.Format, st.PredictedTotal,
			1e3*(st.FeatureSeconds+st.PredictSeconds+st.ConvertSeconds))
	}
	if journal != nil && ad != nil {
		if id, ok := ad.TraceID(); ok {
			if tr, found := journal.Get(id); found {
				fmt.Print(tr.Render())
			}
		} else {
			fmt.Println("trace: the selector pipeline never ran (loop shorter than K iterations?)")
		}
	}
	return nil
}

func nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
