// Package ocs is the public façade of the overhead-conscious SpMV format
// selection library, a from-scratch Go reproduction of Zhao, Zhou, Shen and
// Yiu, "Overhead-Conscious Format Selection for SpMV-Based Applications"
// (IPDPS 2018).
//
// The library consists of
//
//   - seven sparse storage formats with serial and parallel SpMV kernels
//     and conversions: five of the paper's seven (COO, CSR, DIA, ELL, HYB)
//     plus the SELL-C-sigma and JDS extensions. CSR, DIA, ELL, HYB, SELL and
//     JDS are the measured menu, each the measured T_convert + N*T_spmv
//     argmin on some class of `ocsel audit`'s panel: what
//     TrainDefaultPredictors times, MeasureFormatCosts reports and the
//     selector can choose. COO never wins a measured T_affected on this CPU
//     and is study-only: convertible and checked. The paper's other two, BSR and CSR5, are priced only: the
//     analytic model oracle the experiments run on prices them from
//     structure, and nothing converts to them (DESIGN.md §19),
//   - the paper's feature set and gradient-boosted regression models that
//     predict normalized conversion and SpMV times,
//   - the two-stage lazy-and-light selector that converts a matrix at
//     runtime only when the conversion is predicted to pay off, and
//   - the SpMV-based applications (PageRank, CG, PCG, BiCGSTAB, GMRES,
//     Jacobi, power method).
//
// Quick start:
//
//	a, _ := ocs.ReadMatrixMarket("matrix.mtx")        // default CSR
//	preds, _ := ocs.TrainDefaultPredictors(42)        // or load from disk
//	ad := ocs.NewAdaptive(a, 1e-8, preds)             // wrap the matrix
//	res, _ := ocs.CG(ad, b, ocs.DefaultSolveOptions(),
//	    func(it int, p float64) { ad.RecordProgress(p) })
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping from the paper's systems and experiments to packages here.
package ocs

import (
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// Format identifies a sparse storage format.
type Format = sparse.Format

// The storage formats. BSR and CSR5 are priced only: Convert refuses them.
const (
	COO  = sparse.FmtCOO
	CSR  = sparse.FmtCSR
	DIA  = sparse.FmtDIA
	ELL  = sparse.FmtELL
	HYB  = sparse.FmtHYB
	BSR  = sparse.FmtBSR
	CSR5 = sparse.FmtCSR5
	// SELL is the SELL-C-sigma extension format (not part of the paper's
	// original seven).
	SELL = sparse.FmtSELL
	// JDS is the jagged-diagonal-storage extension format: descending
	// row-length permutation, padding-free diagonal-major layout.
	JDS = sparse.FmtJDS
)

// Matrix is the storage-format interface: y = A*x plus shape metadata.
type Matrix = sparse.Matrix

// CSRMatrix is the hub format every matrix is ingested as.
type CSRMatrix = sparse.CSR

// Predictors is the trained stage-2 model bundle.
type Predictors = core.Predictors

// Adaptive wraps a matrix with the two-stage lazy-and-light selection
// scheme.
type Adaptive = core.Adaptive

// Operator is the solver-side matrix contract; CSRMatrix (via Par/Ser) and
// Adaptive both satisfy it.
type Operator = apps.Operator

// Result is a solver outcome.
type Result = apps.Result

// SolveOptions configures the linear solvers.
type SolveOptions = apps.SolveOptions

// PageRankOptions configures the PageRank power iteration.
type PageRankOptions = apps.PageRankOptions

// Re-exported solver entry points.
var (
	// CG solves SPD systems by conjugate gradients.
	CG = apps.CG
	// BiCGSTAB solves general square systems.
	BiCGSTAB = apps.BiCGSTAB
	// GMRES solves general square systems with restarts.
	GMRES = apps.GMRES
	// PageRank runs the power iteration on a transition operator.
	PageRank = apps.PageRank
	// Jacobi runs the damped Jacobi iteration on a diagonally dominant
	// system.
	Jacobi = apps.Jacobi
	// PowerMethod computes the dominant eigenpair by power iteration.
	PowerMethod = apps.PowerMethod
	// PCG runs preconditioned conjugate gradients.
	PCG = apps.PCG
	// NewJacobiPreconditioner builds the diagonal preconditioner for PCG.
	NewJacobiPreconditioner = apps.NewJacobiPreconditioner
	// BuildTransition turns an adjacency matrix into a column-stochastic
	// transition matrix plus dangling-node flags.
	BuildTransition = apps.BuildTransition
	// Par adapts a matrix to an Operator using the parallel kernels.
	Par = apps.Par
	// Ser adapts a matrix to an Operator using the serial kernels.
	Ser = apps.Ser
	// DefaultSolveOptions returns the solver defaults.
	DefaultSolveOptions = apps.DefaultSolveOptions
	// DefaultPageRankOptions returns the PageRank defaults.
	DefaultPageRankOptions = apps.DefaultPageRankOptions
)

// ReadMatrixMarket loads a Matrix Market (.mtx) file as CSR. Parse errors
// carry the file name and 1-based line number (see mmio.ParseError).
func ReadMatrixMarket(path string) (*CSRMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ocs: %w", err)
	}
	defer f.Close()
	return mmio.ReadNamed(f, path)
}

// WriteMatrixMarket stores a matrix as a Matrix Market file.
func WriteMatrixMarket(path string, m Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ocs: %w", err)
	}
	if err := mmio.Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Convert re-formats a matrix under the default storage-blowup limits.
func Convert(m Matrix, to Format) (Matrix, error) {
	return sparse.Convert(m, to, sparse.DefaultLimits)
}

// NewAdaptive wraps a CSR matrix with the two-stage selector using the
// paper's configuration (K = TH = 15) and the parallel kernels. tol is the
// convergence tolerance of the surrounding loop, on the same scale as the
// progress values passed to RecordProgress.
func NewAdaptive(a *CSRMatrix, tol float64, preds *Predictors) *Adaptive {
	return core.NewAdaptive(a, tol, preds, core.DefaultConfig(), true)
}

// TrainDefaultPredictors trains the stage-2 predictor bundle on the default
// synthetic corpus, timing the real kernels of this machine. The result can
// be persisted with SavePredictors. Training measures every (matrix,
// measured-menu format) pair once; expect a few seconds.
func TrainDefaultPredictors(seed int64) (*Predictors, error) {
	entries, err := matgen.Corpus(matgen.CorpusConfig{
		Count: 96, Seed: seed, MinSize: 500, MaxSize: 6000,
	})
	if err != nil {
		return nil, err
	}
	oracle := timing.NewMeasuredOracle(timing.DefaultMeasureOptions())
	samples, err := trainer.Collect(entries, oracle)
	if err != nil {
		return nil, err
	}
	return trainer.Train(samples, gbt.DefaultParams(), 5)
}

// FormatCost is the measured cost of one format on one matrix, normalized
// by the matrix's CSR SpMV time.
type FormatCost struct {
	// ConvertNorm is the CSR->format conversion time in CSR-SpMV calls.
	ConvertNorm float64
	// SpMVNorm is the per-call SpMV time relative to CSR.
	SpMVNorm float64
}

// MeasureFormatCosts wall-clock-measures, for every measured-menu format
// valid for the matrix under the default limits, the conversion cost and
// per-call SpMV cost on this machine. CSR is always present with
// SpMVNorm == 1.
func MeasureFormatCosts(a *CSRMatrix) (map[Format]FormatCost, error) {
	oracle := timing.NewMeasuredOracle(timing.DefaultMeasureOptions())
	s, err := trainer.CollectOne("matrix", a, oracle)
	if err != nil {
		return nil, err
	}
	out := make(map[Format]FormatCost, len(s.SpMVNorm))
	for f, v := range s.SpMVNorm {
		out[f] = FormatCost{ConvertNorm: s.ConvNorm[f], SpMVNorm: v}
	}
	return out, nil
}

// SavePredictors persists a predictor bundle under dir, one JSON file per
// model plus a manifest recording the feature schema and provenance.
func SavePredictors(dir string, p *Predictors) error {
	return trainer.SaveBundle(dir, p, trainer.Manifest{
		NumFeatures: features.NumFeatures,
	})
}

// LoadPredictors restores a bundle saved by SavePredictors, verifying the
// manifest's feature schema against the running code.
func LoadPredictors(dir string) (*Predictors, error) {
	p, _, err := trainer.LoadBundle(dir, features.NumFeatures)
	return p, err
}
