// Command ocsbench times the kernel substrate — per-format SpMV, CSR->format
// conversion (serial vs team-parallel), and raw dispatch overhead (spawn-per-
// call vs persistent team) — and writes the results as machine-readable JSON.
// It exists so the paper's T_convert and T_spmv·N accounting can be fed real
// measured numbers from the current machine:
//
//	go run ./cmd/ocsbench -out BENCH_spmv.json
//
// The emitted file is a single JSON object: environment metadata plus a flat
// list of records, each carrying the benchmark kind, matrix family, format,
// nnz, worker count and ns/op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// Record is one timed measurement.
type Record struct {
	// Kind is "dispatch", "spmv", "convert" or "async".
	Kind string `json:"kind"`
	// Matrix is the matgen family the matrix came from (spmv/convert).
	Matrix string `json:"matrix,omitempty"`
	// Format is the sparse format measured (spmv/convert).
	Format string `json:"format,omitempty"`
	// Variant distinguishes dispatch strategies ("serial", "spawn", "team")
	// and the kernel generation of spmv records for formats with assembly
	// kernels ("vector", "scalar").
	Variant string `json:"variant,omitempty"`
	// N is the loop length for dispatch records.
	N int `json:"n,omitempty"`
	// NNZ is the matrix nonzero count (spmv/convert).
	NNZ int `json:"nnz,omitempty"`
	// Workers is the GOMAXPROCS the measurement ran under.
	Workers int `json:"workers"`
	// NsPerOp is the measured wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// Iters is how many operations the measurement averaged over.
	Iters int `json:"iters"`
	// PaidSeconds/HiddenSeconds split the selector overhead of an "async"
	// record between critical-path seconds and seconds overlapped with
	// in-flight iterations (from the last sampled run).
	PaidSeconds   float64 `json:"paid_seconds,omitempty"`
	HiddenSeconds float64 `json:"hidden_seconds,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUFeatures is the detected SIMD feature set of the recording host
	// (see internal/cpufeat); ns/op from an AVX2 machine and a generic one
	// are different benchmarks, so -compare warns on a mismatch.
	CPUFeatures []string `json:"cpu_features,omitempty"`
	// KernelVariant is the sparse-kernel generation the run dispatched to
	// ("avx2" or "generic").
	KernelVariant string   `json:"kernel_variant,omitempty"`
	Generated     string   `json:"generated"`
	Records       []Record `json:"records"`
}

// benchLimits mirror the kernel benchmarks in bench_test.go: DIA/ELL keep
// their sane default caps (an uncapped DIA on a scatter matrix would pad to
// absurd storage), BSR is uncapped so blocky-vs-not comparisons appear.
var benchLimits = sparse.Limits{
	DIAFill:        sparse.DefaultLimits.DIAFill,
	ELLFill:        sparse.DefaultLimits.ELLFill,
	BSRFill:        1e9,
	BSRBlockSize:   4,
	HYBRowFraction: 1.0 / 3.0,
}

// measure times f like a miniature testing.B: grow the iteration count until
// the batch runs for at least minTime, then report the mean.
func measure(minTime time.Duration, f func()) (nsPerOp float64, iters int) {
	f() // warm up (page in matrices, create the default team)
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= minTime || n >= 1<<24 {
			return float64(elapsed.Nanoseconds()) / float64(n), n
		}
		next := n * 2
		if elapsed > 0 {
			// Aim 20% past minTime to avoid creeping up in tiny steps.
			next = int(1.2 * float64(n) * float64(minTime) / float64(elapsed))
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

func main() {
	// The replay subcommand has its own flag set; dispatch before the
	// kernel-benchmark flags are even declared.
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		replayMain(os.Args[2:])
		return
	}
	out := flag.String("out", "BENCH_spmv.json", "output JSON path (empty = don't write)")
	size := flag.Int("size", 20000, "matrix dimension for generated families")
	degree := flag.Int("degree", 10, "average row degree for generated families")
	seed := flag.Int64("seed", 9, "matrix generator seed")
	minTime := flag.Duration("mintime", 30*time.Millisecond, "minimum sampling time per measurement")
	procs := flag.Int("procs", 0, "GOMAXPROCS for the parallel measurements (0 = max(NumCPU, 4))")
	compare := flag.String("compare", "", "baseline JSON to diff this run against; exit 1 on dispatch/spmv regressions")
	threshold := flag.Float64("threshold", 0.25, "fractional ns/op growth tolerated by -compare")
	trace := flag.Bool("trace", false, "skip the benchmarks; run the adaptive selector on each bench matrix and print its decision trace")
	target := flag.String("target", "", "benchmark a running ocsd/ocsrouter at this base URL (end-to-end HTTP round trips) instead of the in-process kernels")
	asyncBench := flag.Bool("async", false, "also time end-to-end adaptive loops with inline vs background stage-2 (kind \"async\" records)")
	flag.Parse()

	if *trace {
		if err := traceSelections(*size, *degree, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Raise GOMAXPROCS to at least 4 by default: on single-core machines the
	// parallel entry points would otherwise take their serial fallback and
	// nothing but the serial kernels would be measured. Goroutines then
	// time-slice, so the recorded numbers still honestly reflect dispatch
	// overhead (and workers is recorded per measurement).
	if *procs <= 0 {
		*procs = runtime.NumCPU()
		if *procs < 4 {
			*procs = 4
		}
	}
	runtime.GOMAXPROCS(*procs)
	maxProcs := runtime.GOMAXPROCS(0)
	report := Report{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    maxProcs,
		CPUFeatures:   cpufeat.Features(),
		KernelVariant: sparse.KernelVariant(),
		Generated:     time.Now().UTC().Format(time.RFC3339),
	}

	if *target != "" {
		recs, err := remoteRecords(*target, *size, *degree, *seed, *minTime, maxProcs)
		if err != nil {
			log.Fatal(err)
		}
		report.Records = recs
		writeReport(&report, *out, maxProcs)
		for _, rec := range recs {
			fmt.Printf("remote %s/%-9s %12.1f ns/op (%d iters, nnz %d)\n",
				rec.Matrix, rec.Variant, rec.NsPerOp, rec.Iters, rec.NNZ)
		}
		return
	}

	report.Records = append(report.Records, dispatchRecords(*minTime, maxProcs)...)

	for _, fam := range []matgen.Family{matgen.FamBanded, matgen.FamRandom, matgen.FamPowerLaw, matgen.FamBlock} {
		a, err := matgen.Generate(matgen.Spec{
			Name: fam.String(), Family: fam, Size: *size, Degree: *degree, Seed: *seed,
		})
		if err != nil {
			log.Printf("skip family %s: %v", fam, err)
			continue
		}
		report.Records = append(report.Records, spmvRecords(*minTime, fam.String(), a, maxProcs)...)
		report.Records = append(report.Records, convertRecords(*minTime, fam.String(), a, maxProcs)...)
	}

	if *asyncBench {
		recs, err := asyncRecords(*minTime, *size, *degree, *seed, maxProcs)
		if err != nil {
			log.Fatal(err)
		}
		report.Records = append(report.Records, recs...)
	}

	writeReport(&report, *out, maxProcs)
	printSummary(&report)
	if *compare != "" {
		failed, err := runCompare(*compare, &report, *threshold)
		if err != nil {
			log.Fatal(err)
		}
		if failed {
			os.Exit(1)
		}
	}
}

// writeReport serializes the report to path ("" skips the write).
func writeReport(report *Report, path string, maxProcs int) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d records to %s (GOMAXPROCS=%d, NumCPU=%d)\n",
		len(report.Records), path, maxProcs, report.NumCPU)
}

// dispatchRecords times raw dispatch overhead: the same streaming body run
// serially, via spawn-per-call goroutines, and via the persistent team.
func dispatchRecords(minTime time.Duration, workers int) []Record {
	var recs []Record
	team := parallel.Default()
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		x := make([]float64, n)
		body := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i]++
			}
		}
		variants := []struct {
			name string
			run  func()
		}{
			{"serial", func() { body(0, n) }},
			{"spawn", func() { parallel.SpawnForThreshold(n, 1, body) }},
			{"team", func() { team.ForThreshold(n, 1, body) }},
		}
		for _, v := range variants {
			ns, iters := measure(minTime, v.run)
			recs = append(recs, Record{
				Kind: "dispatch", Variant: v.name, N: n,
				Workers: workers, NsPerOp: ns, Iters: iters,
			})
		}
	}
	return recs
}

// vectorizedFormats are the formats whose SpMV has an assembly kernel; their
// spmv records come in "vector"/"scalar" variant pairs so the baseline
// captures the kernel-generation speedup, not just the format ranking.
var vectorizedFormats = map[sparse.Format]bool{
	sparse.FmtCSR: true, sparse.FmtELL: true, sparse.FmtSELL: true, sparse.FmtJDS: true,
}

// spmvRecords times the parallel SpMV kernel of every format the matrix
// converts to, sweeping GOMAXPROCS over {1, max/2, max}. Formats with an
// assembly kernel are measured twice per width, once per kernel generation
// (the scalar run forces the pure-Go fallback).
func spmvRecords(minTime time.Duration, name string, a *sparse.CSR, workers int) []Record {
	var recs []Record
	for _, f := range sparse.AllFormats {
		m, err := sparse.ConvertFromCSR(a, f, benchLimits)
		if err != nil {
			continue
		}
		rows, cols := m.Dims()
		x := make([]float64, cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, rows)
		variants := []string{""}
		if vectorizedFormats[f] && sparse.HasVectorKernels() {
			variants = []string{"vector", "scalar"}
		}
		for _, w := range spmvWorkerCounts(workers) {
			old := runtime.GOMAXPROCS(w)
			for _, variant := range variants {
				if variant == "scalar" {
					sparse.ForceGenericKernels(true)
				}
				ns, iters := measure(minTime, func() { m.SpMVParallel(y, x) })
				if variant == "scalar" {
					sparse.ForceGenericKernels(false)
				}
				recs = append(recs, Record{
					Kind: "spmv", Matrix: name, Format: f.String(), Variant: variant,
					NNZ: m.NNZ(), Workers: w, NsPerOp: ns, Iters: iters,
				})
			}
			runtime.GOMAXPROCS(old)
		}
	}
	return recs
}

// spmvWorkerCounts returns the GOMAXPROCS sweep for the SpMV measurements:
// serial, half width and full width, deduplicated on narrow machines.
func spmvWorkerCounts(max int) []int {
	counts := []int{1}
	if max/2 > 1 {
		counts = append(counts, max/2)
	}
	if max > counts[len(counts)-1] {
		counts = append(counts, max)
	}
	return counts
}

// convertRecords times CSR->format conversion twice per format: pinned to
// one worker (the serial kernels) and at full width (the team-parallel
// kernels). The pair quantifies the conversion speedup — and, divided by a
// CSR SpMV time, the paper's conversion-cost-in-SpMV-units input.
func convertRecords(minTime time.Duration, name string, a *sparse.CSR, workers int) []Record {
	var recs []Record
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		if _, err := sparse.ConvertFromCSR(a, f, benchLimits); err != nil {
			continue
		}
		for _, w := range workerCounts(workers) {
			old := runtime.GOMAXPROCS(w)
			ns, iters := measure(minTime, func() {
				if _, err := sparse.ConvertFromCSR(a, f, benchLimits); err != nil {
					log.Fatalf("convert %s/%s: %v", name, f, err)
				}
			})
			runtime.GOMAXPROCS(old)
			recs = append(recs, Record{
				Kind: "convert", Matrix: name, Format: f.String(),
				NNZ: a.NNZ(), Workers: w, NsPerOp: ns, Iters: iters,
			})
		}
	}
	return recs
}

// asyncRecords times the same adaptive convergence loop end-to-end twice per
// family: with stage 2 inline (the triggering iteration stalls for features,
// inference and conversion) and with stage 2 on a background worker (the loop
// keeps iterating in CSR and adopts the new format at a swap point). The gap
// between the two variants is the critical-path time the overlap hides —
// the effective T_convert -> max(0, T_convert - T_overlap) reduction of the
// cost model, measured. Solver SpMVs run the serial kernels so the loop
// occupies one core and the background pipeline genuinely overlaps, which is
// the daemon's regime (request concurrency owns the other cores).
func asyncRecords(minTime time.Duration, size, degree int, seed int64, workers int) ([]Record, error) {
	entries, err := matgen.Corpus(matgen.CorpusConfig{Count: 48, Seed: seed + 1, MinSize: 500, MaxSize: 3000})
	if err != nil {
		return nil, err
	}
	samples, err := trainer.Collect(entries, timing.NewModelOracle())
	if err != nil {
		return nil, err
	}
	preds, err := trainer.Train(samples, gbt.DefaultParams(), 5)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, fam := range []matgen.Family{matgen.FamPowerLaw, matgen.FamBanded} {
		a, err := matgen.Generate(matgen.Spec{
			Name: fam.String(), Family: fam, Size: size, Degree: degree, Seed: seed,
		})
		if err != nil {
			continue
		}
		rows, cols := a.Dims()
		x := make([]float64, cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, rows)
		for _, variant := range []struct {
			name  string
			async bool
		}{{"inline", false}, {"async", true}} {
			var last core.Stats
			run := func() {
				cfg := core.DefaultConfig()
				cfg.Async = variant.async
				ad := core.NewAdaptive(a, 1e-8, preds, cfg, false)
				// The same synthetic geometric loop as -trace: 120 iterations
				// with one SpMV each, well past the K/TH gates.
				progress := 1.0
				for it := 0; it < 120; it++ {
					ad.SwapPoint()
					ad.SpMV(y, x)
					progress *= 0.8
					ad.RecordProgress(progress)
				}
				// Adopt a conversion still in flight so both variants account
				// the full pipeline (no-op for inline).
				ad.WaitPending()
				last = ad.Stats()
				ad.Close()
			}
			ns, iters := measure(minTime, run)
			recs = append(recs, Record{
				Kind: "async", Matrix: fam.String(), Format: last.Format.String(),
				Variant: variant.name, NNZ: a.NNZ(), Workers: workers,
				NsPerOp: ns, Iters: iters,
				PaidSeconds: last.PaidSeconds, HiddenSeconds: last.HiddenSeconds,
			})
		}
	}
	return recs, nil
}

// workerCounts returns the GOMAXPROCS settings to compare: serial and full
// width (deduplicated on single-core machines).
func workerCounts(max int) []int {
	if max <= 1 {
		return []int{1}
	}
	return []int{1, max}
}

// traceSelections exercises the overhead-conscious selector on each bench
// family with the wall clock doing the timing, then prints the decision
// traces — stage-1 forecast, every gate inequality, stage-2 predictions, and
// the T_affected ledger comparing measured post-decision SpMV times against
// the model's promise. Predictors come from a quick model-oracle training
// pass (no wall-clock measurement, a few seconds).
func traceSelections(size, degree int, seed int64) error {
	fmt.Println("-- selector decision traces --")
	entries, err := matgen.Corpus(matgen.CorpusConfig{Count: 48, Seed: seed + 1, MinSize: 500, MaxSize: 3000})
	if err != nil {
		return err
	}
	samples, err := trainer.Collect(entries, timing.NewModelOracle())
	if err != nil {
		return err
	}
	preds, err := trainer.Train(samples, gbt.DefaultParams(), 5)
	if err != nil {
		return err
	}
	journal := obs.NewJournal(0)
	for _, fam := range []matgen.Family{matgen.FamBanded, matgen.FamRandom, matgen.FamPowerLaw, matgen.FamBlock} {
		a, err := matgen.Generate(matgen.Spec{
			Name: fam.String(), Family: fam, Size: size, Degree: degree, Seed: seed,
		})
		if err != nil {
			continue
		}
		cfg := core.DefaultConfig()
		cfg.Journal = journal
		cfg.TraceLabel = fam.String()
		// A synthetic geometric convergence loop: progress 0.8^k against
		// tol 1e-8 crosses at ~83 iterations, comfortably past the K=15 and
		// TH=15 gates, so stage 2 always gets its chance while the SpMV
		// timings in the trace stay real kernel measurements.
		ad := core.NewAdaptive(a, 1e-8, preds, cfg, true)
		rows, cols := a.Dims()
		x := make([]float64, cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, rows)
		progress := 1.0
		for it := 0; it < 120; it++ {
			ad.SpMV(y, x)
			progress *= 0.8
			ad.RecordProgress(progress)
		}
		if id, ok := ad.TraceID(); ok {
			if tr, found := journal.Get(id); found {
				fmt.Print(tr.Render())
			}
		}
	}
	return nil
}

// printSummary prints the headline comparisons: team-vs-spawn dispatch
// overhead and per-format conversion speedups.
func printSummary(r *Report) {
	type key struct{ kind, matrix, format, variant string }
	byKey := map[key]map[int]float64{} // -> workers (or N for dispatch) -> ns/op
	for _, rec := range r.Records {
		k := key{rec.Kind, rec.Matrix, rec.Format, rec.Variant}
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		switch rec.Kind {
		case "dispatch":
			byKey[k][rec.N] = rec.NsPerOp
		default:
			byKey[k][rec.Workers] = rec.NsPerOp
		}
	}
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		spawn := byKey[key{"dispatch", "", "", "spawn"}][n]
		team := byKey[key{"dispatch", "", "", "team"}][n]
		if spawn > 0 && team > 0 {
			fmt.Printf("dispatch n=%-8d spawn %.0f ns/op, team %.0f ns/op (%.2fx)\n",
				n, spawn, team, spawn/team)
		}
	}
	for _, rec := range r.Records {
		if rec.Kind != "spmv" || rec.Variant != "vector" || rec.Workers != r.GOMAXPROCS {
			continue
		}
		scalar := byKey[key{"spmv", rec.Matrix, rec.Format, "scalar"}][rec.Workers]
		if scalar > 0 {
			fmt.Printf("spmv %s/%-5s scalar %.1f us, vector %.1f us (%.2fx, %d workers)\n",
				rec.Matrix, rec.Format, scalar/1e3, rec.NsPerOp/1e3, scalar/rec.NsPerOp, rec.Workers)
		}
	}
	for _, rec := range r.Records {
		if rec.Kind != "convert" || rec.Workers != 1 {
			continue
		}
		par := byKey[key{"convert", rec.Matrix, rec.Format, ""}][r.GOMAXPROCS]
		if par > 0 && r.GOMAXPROCS > 1 {
			fmt.Printf("convert %s/%-5s serial %.2f ms, %d workers %.2f ms (%.2fx)\n",
				rec.Matrix, rec.Format, rec.NsPerOp/1e6, r.GOMAXPROCS, par/1e6, rec.NsPerOp/par)
		}
	}
	for _, rec := range r.Records {
		// Pair each inline async-loop record with its overlapped counterpart.
		if rec.Kind != "async" || rec.Variant != "inline" {
			continue
		}
		for _, other := range r.Records {
			if other.Kind == "async" && other.Variant == "async" && other.Matrix == rec.Matrix {
				fmt.Printf("async-loop %s (-> %s) inline %.2f ms, overlapped %.2f ms (%.2fx; paid %.2f -> %.2f ms, %.2f ms hidden)\n",
					rec.Matrix, other.Format, rec.NsPerOp/1e6, other.NsPerOp/1e6,
					rec.NsPerOp/other.NsPerOp, 1e3*rec.PaidSeconds, 1e3*other.PaidSeconds, 1e3*other.HiddenSeconds)
			}
		}
	}
	if r.NumCPU == 1 {
		fmt.Println("async-loop note: single-core machine; the background pipeline time-slices with the solver, so end-to-end gains need a spare core (the paid-overhead drop is still real)")
	}
}
