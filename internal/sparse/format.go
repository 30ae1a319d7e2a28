// Package sparse implements the storage formats the runtime converts to —
// CSR and DIA from the paper's seven, plus the SELL-C-sigma extension —
// together with their SpMV kernels (serial, goroutine-parallel, and
// AVX2-vectorized where the host supports it; see kernels.go) and the format
// conversions whose runtime cost is the subject of the paper.
//
// CSR is the hub format: every other format converts to and from CSR, and
// CSR is the default format applications start from, matching the paper's
// experimental setup. The three built formats are the measured menu the
// runtime trains and selects among (Implemented). The paper's COO, ELL, HYB,
// BSR and CSR5 and the JDS extension are priced only: they keep their Format
// numbers and the analytic model oracle the experiments run on prices them
// from structure, but this build has no kernel or conversion for them
// (DESIGN.md §6). SELL's sorting window follows the matrix's row lengths,
// which makes JDS, its sigma = rows corner, redundant, and SELL's per-slice
// padding covers ELL, its sigma = 1 corner, on every class ELL won.
package sparse

import "fmt"

// Format identifies a sparse storage format.
type Format int

// The storage formats studied in the paper, in the order of its Table V,
// plus SELL-C-sigma — the "easily extended to other formats" exercise the
// paper's §V-A proposes.
const (
	FmtCOO Format = iota
	FmtCSR
	FmtDIA
	FmtELL
	FmtHYB
	FmtBSR
	FmtCSR5
	FmtSELL
	// 8 was CSC, deleted. The number is retired rather than reused:
	// timing.ModelOracle hashes a format's number into its jitter, so a
	// renumbered JDS would move every JDS figure in exp_output.txt.
	_
	FmtJDS
	numFormats
)

// AllFormats lists every format the selector and the model oracle know, CSR
// first since it is the default. The slice is shared; callers must not
// mutate it.
var AllFormats = []Format{FmtCSR, FmtCOO, FmtDIA, FmtELL, FmtHYB, FmtBSR, FmtCSR5, FmtSELL, FmtJDS}

// PaperFormats is the subset the paper's evaluation covers (AllFormats
// minus the SELL-C-sigma and JDS extensions).
var PaperFormats = []Format{FmtCSR, FmtCOO, FmtDIA, FmtELL, FmtHYB, FmtBSR, FmtCSR5}

// Implemented is the one answer to "can this build convert to f", and the
// measured menu: the formats with a kernel and a conversion from CSR, CSR
// first, which timing.MeasuredOracle prices, a bundle trained on this
// machine's kernels holds and the runtime can select. A format is built iff,
// without it, the best measured T_convert + N*T_spmv on some class of the
// home-turf panel leaves the band of runs with it at some loop length N, as
// `ocsel audit` prints it (DESIGN.md §6). COO, ELL, HYB, BSR, CSR5 and JDS
// are AllFormats' rest and stay only as prices: CanConvert answers false for
// them, ConvertFromCSR names them priced-only, and a saved predictor bundle's
// models for them are dropped at load.
var Implemented = []Format{FmtCSR, FmtDIA, FmtSELL}

// CSR5 tile geometry, which timing.ModelOracle's CSR5 price reads. A tile
// holds Sigma*Omega consecutive nonzeros, written column-major into a
// Sigma x Omega block, the tile-transposed layout of Liu & Vinter's CSR5.
const (
	CSR5Omega = 4  // lanes per tile
	CSR5Sigma = 16 // elements per lane
	// CSR5Tile is the number of nonzeros per full tile.
	CSR5Tile = CSR5Omega * CSR5Sigma
)

// NumFormats bounds the Format values (one number below it is retired), for
// arrays indexed by Format.
const NumFormats = int(numFormats)

var formatNames = [...]string{
	FmtCOO:  "COO",
	FmtCSR:  "CSR",
	FmtDIA:  "DIA",
	FmtELL:  "ELL",
	FmtHYB:  "HYB",
	FmtBSR:  "BSR",
	FmtCSR5: "CSR5",
	FmtSELL: "SELL",
	FmtJDS:  "JDS",
}

// String returns the conventional upper-case name of the format.
func (f Format) String() string {
	if !f.Valid() {
		return fmt.Sprintf("Format(%d)", int(f))
	}
	return formatNames[f]
}

// Valid reports whether f is one of the known formats (Implemented or not).
func (f Format) Valid() bool { return f >= 0 && f < numFormats && formatNames[f] != "" }

// ParseFormat converts a format name (as produced by String, case-sensitive)
// back to a Format.
func ParseFormat(s string) (Format, error) {
	for i, name := range formatNames {
		if name != "" && name == s {
			return Format(i), nil
		}
	}
	return 0, fmt.Errorf("sparse: unknown format %q", s)
}

// Matrix is the interface every storage format implements. SpMV computes
// y = A*x, overwriting y. Implementations never retain x or y.
type Matrix interface {
	// Format identifies the storage format.
	Format() Format
	// Dims returns the number of rows and columns.
	Dims() (rows, cols int)
	// NNZ returns the number of stored nonzero entries (excluding padding).
	NNZ() int
	// SpMV computes y = A*x serially. Panics on dimension mismatch.
	SpMV(y, x []float64)
	// SpMVParallel computes y = A*x using multiple goroutines where the
	// matrix is large enough for that to pay off.
	SpMVParallel(y, x []float64)
	// Bytes returns the storage footprint of the format's arrays, including
	// padding. This is what the cost model and the feature set use.
	Bytes() int64
}
