package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareKey identifies a measurement across runs. Workers and nnz are
// deliberately excluded: the baseline may come from a different machine, and
// both runs record whatever width they actually ran at — the comparison is
// per logical benchmark, not per hardware configuration.
type compareKey struct {
	Kind    string
	Matrix  string
	Format  string
	Variant string
	N       int
}

func (k compareKey) String() string {
	s := k.Kind
	if k.Matrix != "" {
		s += "/" + k.Matrix
	}
	if k.Format != "" {
		s += "/" + k.Format
	}
	if k.Variant != "" {
		s += "/" + k.Variant
	}
	if k.N != 0 {
		s += fmt.Sprintf("/n=%d", k.N)
	}
	return s
}

// regression is one benchmark that slowed down past the threshold.
type regression struct {
	Key      compareKey
	Baseline float64 // ns/op
	Fresh    float64 // ns/op
	Ratio    float64 // Fresh / Baseline
}

// loadReport reads a previously written ocsbench JSON document.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// indexRecords keys the dispatch and spmv records of a report. Convert
// records are excluded from regression gating: conversion is measured at
// pinned worker counts and its absolute time is far noisier under CI load;
// the selector-facing quantities the paper's accounting needs are dispatch
// overhead and per-format SpMV throughput. A key
// measured at several worker counts keeps its fastest time.
func indexRecords(r *Report) map[compareKey]float64 {
	idx := make(map[compareKey]float64)
	for _, rec := range r.Records {
		if rec.Kind != "dispatch" && rec.Kind != "spmv" {
			continue
		}
		k := compareKey{Kind: rec.Kind, Matrix: rec.Matrix, Format: rec.Format, Variant: rec.Variant, N: rec.N}
		if old, ok := idx[k]; !ok || rec.NsPerOp < old {
			idx[k] = rec.NsPerOp
		}
	}
	return idx
}

// compareReports diffs a fresh run against a baseline and returns the
// benchmarks whose ns/op grew by more than threshold (0.25 = 25%), plus how
// many keys were actually compared. Keys present on only one side are
// skipped: formats legitimately come and go with the limits and machine.
func compareReports(baseline, fresh *Report, threshold float64) (regs []regression, matched int) {
	base := indexRecords(baseline)
	cur := indexRecords(fresh)
	for k, b := range base {
		c, ok := cur[k]
		if !ok || b <= 0 {
			continue
		}
		matched++
		if ratio := c / b; ratio > 1+threshold {
			regs = append(regs, regression{Key: k, Baseline: b, Fresh: c, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, matched
}

// gomaxprocsNote flags baselines recorded at a different parallel width than
// the fresh run: dispatch and parallel-spmv ns/op scale with GOMAXPROCS, so
// cross-width diffs measure the machine delta, not a code regression.
// Returns "" when the widths match or either report predates the field.
func gomaxprocsNote(baseline, fresh *Report) string {
	if baseline.GOMAXPROCS == 0 || fresh.GOMAXPROCS == 0 || baseline.GOMAXPROCS == fresh.GOMAXPROCS {
		return ""
	}
	return fmt.Sprintf("warning: baseline was recorded at GOMAXPROCS=%d but this run used GOMAXPROCS=%d; dispatch and parallel spmv times are not directly comparable (rerun with -procs %d or refresh the baseline)",
		baseline.GOMAXPROCS, fresh.GOMAXPROCS, baseline.GOMAXPROCS)
}

// cpuFeaturesNote flags baselines recorded on a host with a different SIMD
// feature set (or kernel generation) than the fresh run: the assembly kernels
// dispatch by CPU feature, so an AVX2 baseline diffed on a generic host
// measures the hardware delta, not a code regression. Returns "" when the
// sets match or either report predates the fields.
func cpuFeaturesNote(baseline, fresh *Report) string {
	if baseline.KernelVariant != "" && fresh.KernelVariant != "" &&
		baseline.KernelVariant != fresh.KernelVariant {
		return fmt.Sprintf("warning: baseline dispatched the %q kernels but this run dispatched %q; spmv times are not directly comparable (refresh the baseline on this host)",
			baseline.KernelVariant, fresh.KernelVariant)
	}
	if len(baseline.CPUFeatures) == 0 || len(fresh.CPUFeatures) == 0 {
		return ""
	}
	if featureSet(baseline.CPUFeatures) == featureSet(fresh.CPUFeatures) {
		return ""
	}
	return fmt.Sprintf("warning: baseline was recorded with CPU features [%s] but this host has [%s]; kernel dispatch may differ (refresh the baseline on this host)",
		featureSet(baseline.CPUFeatures), featureSet(fresh.CPUFeatures))
}

// featureSet canonicalizes a feature list for comparison and display.
func featureSet(fs []string) string {
	sorted := append([]string(nil), fs...)
	sort.Strings(sorted)
	return strings.Join(sorted, " ")
}

// runCompare loads the baseline, diffs the fresh report against it, prints a
// verdict, and reports whether the run regressed.
func runCompare(baselinePath string, fresh *Report, threshold float64) (failed bool, err error) {
	baseline, err := loadReport(baselinePath)
	if err != nil {
		return false, fmt.Errorf("loading baseline: %w", err)
	}
	if note := gomaxprocsNote(baseline, fresh); note != "" {
		fmt.Println(note)
	}
	if note := cpuFeaturesNote(baseline, fresh); note != "" {
		fmt.Println(note)
	}
	regs, matched := compareReports(baseline, fresh, threshold)
	if matched == 0 {
		return false, fmt.Errorf("baseline %s shares no dispatch/spmv benchmarks with this run", baselinePath)
	}
	fmt.Printf("compare: %d benchmarks matched against %s (threshold +%.0f%%)\n",
		matched, baselinePath, threshold*100)
	for _, r := range regs {
		fmt.Printf("REGRESSION %-40s baseline %10.1f ns/op, now %10.1f ns/op (%.2fx)\n",
			r.Key, r.Baseline, r.Fresh, r.Ratio)
	}
	if len(regs) == 0 {
		fmt.Println("compare: no regressions")
	}
	return len(regs) > 0, nil
}
