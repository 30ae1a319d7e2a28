// Command ocsel is the experiment driver and model trainer for the
// overhead-conscious SpMV format selection library.
//
// Usage:
//
//	ocsel exp <id> [flags]     regenerate a paper table/figure
//	ocsel train [flags]        train and persist the predictor bundle
//	ocsel run [flags]          run an application on a .mtx file
//	ocsel audit [-matrix FILE] print the measured crossover table (DESIGN.md §19)
//
// Experiment ids: table3 table4 table5 fig2 fig5 fig6 table6 table7 table8
// stage1 overhead solversel ablation-implicit ablation-nogate
// ablation-absolute ablation-sell ablation-reorder all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/timing"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "exp":
		err = cmdExp(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "audit":
		err = cmdAudit(os.Args[2:])
	case "features":
		err = cmdFeatures(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocsel:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ocsel exp <id> [-oracle model|measured] [-train N] [-eval N] [-min N] [-max N] [-seed N]
  ocsel train [-out DIR] [-count N] [-seed N] [-oracle model|measured]
  ocsel run -matrix FILE [-app pagerank|cg|bicgstab|gmres] [-models DIR] [-adaptive]
  ocsel audit [-matrix FILE]
  ocsel features -matrix FILE
  ocsel predict -matrix FILE [-models DIR] [-iters N]

experiment ids: table3 table4 table5 fig2 fig5 fig6 table6 table7 table8
                stage1 overhead solversel ablation-implicit ablation-nogate
                ablation-absolute ablation-sell ablation-reorder all`)
}

// cmdAudit prices the home-turf panel, or one Matrix Market file, through
// the measuring oracle and prints the crossover table.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	path := fs.String("matrix", "", "audit this Matrix Market file instead of the panel")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := timing.NewMeasuredOracle(timing.DefaultMeasureOptions())
	if *path == "" {
		audit, err := experiments.RunAudit(o, experiments.Panel())
		if err == nil {
			fmt.Print(audit.Render())
		}
		return err
	}
	a, err := readMatrix(*path)
	if err == nil {
		audit := experiments.Audit{Rows: []experiments.AuditRow{experiments.AuditMatrix(o, filepath.Base(*path), a)}}
		fmt.Print(audit.Render())
	}
	return err
}

// buildContext parses the shared experiment flags and constructs a Context.
func buildContext(fs *flag.FlagSet, args []string) (*experiments.Context, error) {
	oracleKind := fs.String("oracle", "model", "cost oracle: model (deterministic) or measured (wall clock)")
	trainN := fs.Int("train", 96, "training corpus size")
	evalN := fs.Int("eval", 48, "evaluation corpus size")
	minSize := fs.Int("min", 500, "minimum matrix scale")
	maxSize := fs.Int("max", 6000, "maximum matrix scale")
	seed := fs.Int64("seed", 42, "corpus seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	opt := experiments.DefaultOptions()
	opt.TrainCount = *trainN
	opt.EvalCount = *evalN
	opt.MinSize = *minSize
	opt.MaxSize = *maxSize
	opt.Seed = *seed
	var oracle timing.Oracle
	switch *oracleKind {
	case "model":
		oracle = timing.NewModelOracle()
	case "measured":
		oracle = timing.NewMeasuredOracle(timing.DefaultMeasureOptions())
	default:
		return nil, fmt.Errorf("unknown oracle %q", *oracleKind)
	}
	fmt.Fprintf(os.Stderr, "building context: %d train + %d eval matrices, %s oracle...\n",
		opt.TrainCount, opt.EvalCount, *oracleKind)
	return experiments.NewContext(opt, oracle)
}

func cmdExp(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("exp: missing experiment id")
	}
	id := args[0]
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	asCSV := fs.Bool("csv", false, "emit CSV instead of rendered tables (fig2, fig5, fig6, table3, table5, table6)")
	c, err := buildContext(fs, args[1:])
	if err != nil {
		return err
	}
	if *asCSV {
		out, err := runOneCSV(c, id)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	ids := []string{id}
	if id == "all" {
		ids = []string{"table3", "table4", "table5", "fig2", "fig5", "fig6",
			"table6", "table7", "table8", "stage1", "overhead",
			"ablation-implicit", "ablation-nogate", "ablation-absolute",
			"ablation-sell", "ablation-reorder", "solversel"}
	}
	for _, one := range ids {
		out, err := runOne(c, one)
		if err != nil {
			return fmt.Errorf("%s: %w", one, err)
		}
		fmt.Println(out)
	}
	return nil
}

func runOne(c *experiments.Context, id string) (string, error) {
	switch id {
	case "table3":
		return c.RunTable3().Render(), nil
	case "table4":
		return c.RunTable4().Render(), nil
	case "table5":
		t, err := c.RunTable5()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "fig2":
		h, err := c.RunFig2()
		if err != nil {
			return "", err
		}
		return h.Render(), nil
	case "fig5":
		return c.RunFig5().Render(), nil
	case "fig6":
		h, err := c.RunFig6()
		if err != nil {
			return "", err
		}
		return h.Render(), nil
	case "table6":
		t, err := c.RunTable6()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "table7":
		t, err := c.RunTable7()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "table8":
		t, err := c.RunTable8()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "stage1":
		r, err := c.RunStage1()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "overhead":
		return c.RunOverhead().Render(), nil
	case "ablation-implicit":
		a, err := c.RunAblationImplicit()
		if err != nil {
			return "", err
		}
		return a.Render(), nil
	case "ablation-nogate":
		a, err := c.RunAblationGate(1000)
		if err != nil {
			return "", err
		}
		return a.Render(), nil
	case "ablation-absolute":
		a, err := c.RunAblationNormalize()
		if err != nil {
			return "", err
		}
		return a.Render(), nil
	case "ablation-sell":
		return c.RunAblationSELL().Render(), nil
	case "ablation-reorder":
		a, err := c.RunAblationReorder()
		if err != nil {
			return "", err
		}
		return a.Render(), nil
	case "solversel":
		r, err := c.RunSolverSel()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	default:
		return "", fmt.Errorf("unknown experiment id %q", id)
	}
}

// runOneCSV renders the plottable artifacts as CSV.
func runOneCSV(c *experiments.Context, id string) (string, error) {
	switch id {
	case "table3":
		return c.RunTable3().CSV(), nil
	case "table5":
		t, err := c.RunTable5()
		if err != nil {
			return "", err
		}
		return t.CSV(), nil
	case "table6":
		t, err := c.RunTable6()
		if err != nil {
			return "", err
		}
		return t.CSV(), nil
	case "fig2":
		h, err := c.RunFig2()
		if err != nil {
			return "", err
		}
		return h.CSV(), nil
	case "fig5":
		return c.RunFig5().CSV(), nil
	case "fig6":
		h, err := c.RunFig6()
		if err != nil {
			return "", err
		}
		return h.CSV(), nil
	default:
		return "", fmt.Errorf("no CSV form for experiment %q", id)
	}
}
