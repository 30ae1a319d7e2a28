// Command benchmark is the repo's one benchmark: five workloads over the
// whole stack (solver loops through the adaptive selector, one ocsd, a
// partitioned router), end-to-end metrics untraced and per-layer metrics from
// a separate traced run. README.md in this directory says why each workload
// and metric exists; BENCHMARK.json at the repo root is the contract the
// driver checks it against.
//
//	bash benchmark/run.sh                      all workloads, untraced
//	bash benchmark/run.sh -trace               all workloads, per-layer metrics
//	bash benchmark/run.sh -selfcheck           two order-swapped sets, compared
//	bash benchmark/run.sh --workload serve_hot --seed 3 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// workloadDef names a workload and the reason it exists (BENCHMARK.json
// carries the same two fields).
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"solve_long", "CG to 1e-6 on 1.25M and 1.8M nnz (1100 and 170 iterations): kernels and vec are over 95% of the time, so kernel work shows and selector work must not"},
	{"solve_short", "six 15-230 iteration solves: feature extraction, stage 1/2 and conversion are ~8% of the time and decide the result, the paper's regime"},
	{"serve_hot", "nproc closed-loop clients on one 4M-nnz ocsd handle: handle lock, admission pool and kernels decide throughput"},
	{"serve_tenants", "open-loop register/spmv/solve/delete mix over duplicate tenants: mmio, dedup, convcache and JSON wire cost dominate"},
	{"cluster_partitioned", "router over two shards, one 78k-row handle in two row blocks, wire-bound and cache-resident by design: re-encode, shard round trips and gather set the time"},
}

// runCfg is one invocation's knobs. scale exists for the smoke test only.
type runCfg struct {
	seed    int64
	seconds float64
	scale   float64
	traced  bool
}

// bench is the per-process state: the predictors are trained once and shared
// by every workload the invocation runs, as one ocsd -train would.
type bench struct {
	cfg    runCfg
	nproc  int
	preds  *core.Predictors
	trainS float64 // whole training, part of every workload's setup_s
	// collectS and fitS split trainS.
	collectS, fitS float64
	log            io.Writer
}

// outcome is one workload's result.
type outcome struct {
	Workload        string            `json:"workload"`
	Seed            int64             `json:"seed"`
	Traced          bool              `json:"traced"`
	Correct         bool              `json:"correct"`
	Attempted       int               `json:"attempted"`
	Failed          int               `json:"failed"`
	Failures        []string          `json:"failures,omitempty"`
	Metrics         map[string]metric `json:"metrics"`
	WorkingSetBytes int64             `json:"working_set_bytes"`
	Detail          map[string]any    `json:"detail,omitempty"`
	WhereTimeGoes   []spanRow         `json:"where_time_goes,omitempty"`

	e2e    *metricSet
	layers *metricSet
	rec    *recorder
	failMu sync.Mutex // load-generator goroutines report failures concurrently
}

func (b *bench) newOutcome(name string) *outcome {
	o := &outcome{Workload: name, Seed: b.cfg.seed, Traced: b.cfg.traced, Detail: map[string]any{},
		e2e: newMetricSet(endToEnd), layers: newMetricSet(perLayer)}
	if b.cfg.traced {
		o.rec = newRecorder()
	}
	return o
}

// endSetup closes a workload's set-up phase: it returns setup_s (training
// included) and resets the peak-RSS mark, so peak_rss_mb is the timed phase's
// own high water and not the 640 MB the training touched.
func (b *bench) endSetup(start time.Time) float64 {
	s := b.trainS + time.Since(start).Seconds()
	resetPeakRSS()
	return s
}

// fail counts one failed operation; the first few reasons are kept.
func (o *outcome) fail(err error) {
	o.Failed++
	if len(o.Failures) < 8 {
		o.Failures = append(o.Failures, err.Error())
	}
}

func newBench(cfg runCfg, log io.Writer) (*bench, error) {
	if err := checkProcs(runtime.GOMAXPROCS(0), runtime.NumCPU()); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, nproc: runtime.NumCPU(), log: log}
	return b, b.train()
}

// trainSeed is ocsd's -seed default. The models are part of the program
// under test, not of the workload: --seed draws the inputs, and drawing a new
// training corpus with it too would add the selector's sensitivity to its
// corpus to every metric's run-to-run spread.
const trainSeed = 42

// train builds the stage-2 predictors with the three calls
// ocs.TrainDefaultPredictors makes (ocsd -train), on its corpus; making them
// here is what lets collection and fitting be timed apart. The smoke test
// shrinks the corpus.
func (b *bench) train() error {
	t0 := time.Now()
	cc := matgen.CorpusConfig{Count: 96, Seed: trainSeed, MinSize: 500, MaxSize: 6000}
	if b.cfg.scale < 1 {
		cc.Count, cc.MaxSize = 24, 1200
	}
	entries, err := matgen.Corpus(cc)
	if err != nil {
		return err
	}
	samples, err := trainer.Collect(entries, timing.NewMeasuredOracle(timing.DefaultMeasureOptions()))
	if err != nil {
		return err
	}
	b.collectS = time.Since(t0).Seconds()
	b.preds, err = trainer.Train(samples, gbt.DefaultParams(), 5)
	b.trainS = time.Since(t0).Seconds()
	b.fitS = b.trainS - b.collectS
	return err
}

// run executes one workload and finishes its outcome.
func (b *bench) run(name string) (*outcome, error) {
	var (
		o   *outcome
		err error
	)
	switch name {
	case "solve_long", "solve_short":
		o, err = b.solveWorkload(name)
	case "serve_hot":
		o, err = b.serveHot()
	case "serve_tenants":
		o, err = b.serveTenants()
	case "cluster_partitioned":
		o, err = b.clusterPartitioned()
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	o.e2e.set("peak_rss_mb", peakRSSMB())
	o.Correct = o.Failed == 0 && o.Attempted > 0
	if b.cfg.traced {
		b.probeLayers(o)
		l := o.layers
		l.set("trainer.collect_s", b.collectS)
		l.set("trainer.train_s", b.fitS)
		l.set("bench.working_set_mb", float64(o.WorkingSetBytes)/(1<<20))
		l.set("bench.failed_share", float64(o.Failed)/float64(max(o.Attempted, 1)))
		o.Metrics = l.emit()
		o.WhereTimeGoes = whereTimeGoes(o.rec.snapshot())
	} else {
		o.Metrics = o.e2e.emit()
		for name, m := range o.Metrics {
			if !(m.Value > 0) {
				return nil, fmt.Errorf("%s: end-to-end metric %s is %v; it must be positive", o.Workload, name, m.Value)
			}
		}
	}
	return o, nil
}

// resultSet is what lands in out/results*.json and in baseline/.
type resultSet struct {
	Environment environment `json:"environment"`
	Seconds     float64     `json:"seconds_per_workload"`
	Outcomes    []*outcome  `json:"outcomes"`
}

func (b *bench) runAll(names []string) (*resultSet, error) {
	rs := &resultSet{Environment: readEnvironment(), Seconds: b.cfg.seconds}
	for _, name := range names {
		o, err := b.run(name)
		if err != nil {
			return nil, err
		}
		rs.Outcomes = append(rs.Outcomes, o)
		printOutcome(b.log, o)
		if o.rec != nil {
			if err := writeTrace(o); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

const outDir = "out"

func writeTrace(o *outcome) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return o.rec.writeFile(filepath.Join(outDir, "trace-"+o.Workload+".json"))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printOutcome prints every metric by name with its unit, one per line.
func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v attempted=%d failed=%d working_set=%.1fMB\n",
		o.Workload, o.Seed, o.Traced, o.Attempted, o.Failed, float64(o.WorkingSetBytes)/(1<<20))
	fmt.Fprintf(w, "%-40s %14.6g share\n", "failed_share", float64(o.Failed)/float64(max(o.Attempted, 1)))
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	keys := make([]string, 0, len(o.Detail))
	for k := range o.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  detail %-31s %v\n", k, o.Detail[k])
	}
	for _, f := range o.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// normalizeArgs lets the driver's "--trace 0|1" and the issue's bare
// "-trace" share one boolean flag: the flag package would stop parsing at
// the detached value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload and print the driver's JSON line (default: all five)")
		seed      = fs.Int64("seed", 1, "drives matrix values, vectors, the op mix and the arrival schedule")
		seconds   = fs.Float64("seconds", 12, "timed phase per workload")
		traced    = fs.Bool("trace", false, "record spans and report the per-layer metrics")
		selfcheck = fs.Bool("selfcheck", false, "run the full set twice, order swapped, and compare against the bounds")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, scale: 1, traced: *traced}
	if *workload != "" && !knownWorkload(*workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *selfcheck {
		return selfCheck(cfg, stdout, stderr)
	}
	b, err := newBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *workload != "" {
		o, err := b.run(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printOutcome(stdout, o)
		file := fmt.Sprintf("results-%s-traced-%v.json", o.Workload, o.Traced)
		err = writeJSON(filepath.Join(outDir, file), resultSet{
			Environment: readEnvironment(), Seconds: cfg.seconds, Outcomes: []*outcome{o}})
		if err == nil && o.rec != nil {
			err = writeTrace(o)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{o.Correct, o.Attempted, o.Failed, o.Metrics})
		fmt.Fprintln(stdout, string(line))
		if !o.Correct {
			return 1
		}
		return 0
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	rs, err := b.runAll(names)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), rs); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, o := range rs.Outcomes {
		if !o.Correct {
			return 1
		}
	}
	return 0
}
