package timing

import (
	"math"

	"repro/internal/features"
	"repro/internal/sparse"
)

// ModelOracle is a deterministic analytic cost model. It exists for two
// reasons: unit tests need reproducible costs, and the corpus-wide
// experiment sweeps need to ask thousands of cost questions faster than
// wall-clock measurement allows. The model is shaped after the real CPU
// kernels in internal/sparse — contiguous formats pay per stored slot
// (padding included), index-based formats additionally pay a gather penalty
// that grows with intra-row column jumps, and conversions pay a large
// per-element coefficient, landing in the paper's "9-270 SpMV calls"
// regime. It prices every format in sparse.AllFormats under
// sparse.DefaultLimits, the limits the measured oracle converts under.
type ModelOracle struct {
	// Noise adds deterministic multiplicative jitter of the given relative
	// magnitude (0 disables), so trained predictors face realistic,
	// imperfectly learnable targets.
	Noise float64
}

// elementOp is the nominal cost of one element operation in seconds.
const elementOp = 1e-9

// NewModelOracle builds the model oracle used across tests and fast sweeps.
func NewModelOracle() *ModelOracle { return &ModelOracle{Noise: 0.03} }

// modelStats holds the structural quantities the cost formulas need.
type modelStats struct {
	rows, cols int
	nnz        int
	ndiags     int
	maxRD      int
	hybWidth   int
	blocks     int // BSR blocks at DefaultLimits.BSRBlockSize
	ntiles     int
	sellSlots  int // padded slots of the SELL-C-sigma layout NewSELLFromCSR builds
	sellSlices int
	spread     float64 // mean intra-row column jump, the gather proxy
	gather     float64 // gather penalty factor in [1, 3]
}

// geometry is what the fill rule reads of the matrix.
func (s *modelStats) geometry() sparse.Geometry {
	return sparse.Geometry{Rows: float64(s.rows), NNZ: float64(s.nnz),
		Diags: float64(s.ndiags), MaxRow: float64(s.maxRD), Blocks: float64(s.blocks)}
}

func statsOf(a *sparse.CSR) *modelStats {
	rows, cols := a.Dims()
	s := &modelStats{rows: rows, cols: cols, nnz: a.NNZ()}
	s.ndiags = len(sparse.CSRDiagonals(a))
	s.maxRD = a.MaxRowNNZ()
	s.hybWidth = sparse.HYBWidth(a)
	s.blocks = features.CountBlocks(a, sparse.DefaultLimits.BSRBlockSize)
	s.ntiles = s.nnz / sparse.CSR5Tile
	sell := sparse.NewSELLLayout(a)
	s.sellSlots, s.sellSlices = sell.Slots(), sell.NumSlices()
	var jumps float64
	var njumps int
	for i := 0; i < rows; i++ {
		for k := a.Ptr[i] + 1; k < a.Ptr[i+1]; k++ {
			jumps += float64(a.Col[k] - a.Col[k-1])
			njumps++
		}
	}
	if njumps > 0 {
		s.spread = jumps / float64(njumps)
	}
	s.gather = 1 + 2*(1-math.Exp(-s.spread/512))
	return s
}

// jitter returns a deterministic multiplicative factor near 1 derived from
// the (matrix, format, kind) triple, so repeated queries agree but different
// matrices see different "measurement" noise.
func (o *ModelOracle) jitter(nnz, rows int, f sparse.Format, kind uint64) float64 {
	if o.Noise <= 0 {
		return 1
	}
	h := uint64(nnz)*0x9E3779B97F4A7C15 ^ uint64(rows)*0xBF58476D1CE4E5B9 ^
		uint64(f+1)*0x94D049BB133111EB ^ kind*0xD6E8FEB86659FD93
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	// Map to [-1, 1].
	u := float64(h%(1<<20))/float64(1<<19) - 1
	return 1 + o.Noise*u
}

// spmvOps returns the element-op count of one SpMV in format f, or ok=false
// for a format the model does not price.
//
// Calibration notes. Index-based formats (CSR, COO, ELL, HYB) pay the
// gather penalty on the x accesses; DIA is the one contiguous,
// gather-free format; BSR amortizes index loads across whole blocks; and
// CSR5 gets a reduced gather penalty plus a per-tile overhead — this
// emulates the GPU situation the paper evaluates, where CSR5/BSR are the
// generically fastest formats (the paper's Table IV: OO picks BSR for 943
// and CSR5 for 582 of 1911 matrices) while their conversions are the most
// expensive (up to the "270 SpMV calls" end of Table III).
func spmvOps(s *modelStats, f sparse.Format) (float64, bool) {
	nnz := float64(s.nnz)
	rows := float64(s.rows)
	switch f {
	case sparse.FmtCSR:
		return nnz*2.0*s.gather + rows*1.0, true
	case sparse.FmtCOO:
		return nnz*2.6*s.gather + rows*0.5, true
	case sparse.FmtDIA:
		return float64(s.ndiags)*rows*0.85 + rows*0.5, true
	case sparse.FmtELL:
		return rows*float64(s.maxRD)*1.0*s.gather + rows*0.5, true
	case sparse.FmtHYB:
		ell := rows * float64(s.hybWidth) * 1.0 * s.gather
		over := nnz - rows*float64(s.hybWidth)
		if over < 0 {
			over = 0
		}
		return ell + over*2.6*s.gather + rows*0.5, true
	case sparse.FmtBSR:
		bs := float64(sparse.DefaultLimits.BSRBlockSize)
		return float64(s.blocks)*bs*bs*0.95 + float64(s.blocks)*2 + rows*1.0, true
	case sparse.FmtCSR5:
		// Tiling shrinks the gather penalty (load-balanced, locality-
		// tiled) at the price of per-tile segmented-sum overhead. The low
		// per-element coefficient makes CSR5 the generic per-call winner —
		// as on the paper's GPU — while its conversion (below) is among
		// the most expensive, which is exactly the trap overhead-oblivious
		// selection falls into.
		g := 1 + 0.3*(s.gather-1)
		return nnz*0.8*g + float64(s.ntiles)*4 + rows*0.5, true
	case sparse.FmtSELL:
		// Regular slice-local layout: a lower per-slot coefficient than
		// ELL, padding bounded by the sigma sorting.
		return float64(s.sellSlots)*1.1*s.gather + float64(s.sellSlices)*2 + rows*0.5, true
	case sparse.FmtJDS:
		// Jagged diagonals: padding-free contiguous streams with a partially
		// suppressed gather penalty (like CSR5's tiles, slightly weaker),
		// plus a per-diagonal loop restart and the permuted-y scatter. Near
		// CSR5 speed on skewed matrices at a fraction of its conversion
		// cost — the overhead-conscious selector's bargain option.
		g := 1 + 0.45*(s.gather-1)
		return nnz*0.9*g + float64(s.maxRD)*3 + rows*1.6, true
	default:
		return 0, false
	}
}

// convertOps returns the element-op count of the CSR -> f conversion. The
// coefficients land the normalized costs in the paper's Table III regime
// (the equivalent of roughly 9-270 SpMV calls): DIA/ELL/HYB/COO are
// cheap-to-moderate rearrangements, BSR pays block discovery and per-block
// scatter, CSR5 pays the tile transposition and flag construction.
func convertOps(s *modelStats, f sparse.Format) (float64, bool) {
	nnz := float64(s.nnz)
	rows := float64(s.rows)
	switch f {
	case sparse.FmtCSR:
		return 0, true
	case sparse.FmtCOO:
		return nnz*8 + rows*2, true
	case sparse.FmtDIA:
		return nnz*20 + float64(s.ndiags)*rows*4 + 2000, true
	case sparse.FmtELL:
		return nnz*12 + rows*float64(s.maxRD)*3 + 2000, true
	case sparse.FmtHYB:
		return nnz*20 + rows*float64(s.hybWidth)*3 + rows*4 + 2000, true
	case sparse.FmtBSR:
		bs := float64(sparse.DefaultLimits.BSRBlockSize)
		return nnz*120 + float64(s.blocks)*bs*bs*6 + 2000, true
	case sparse.FmtCSR5:
		return nnz*100 + float64(s.ntiles)*40 + 2000, true
	case sparse.FmtSELL:
		// Window sorting plus the padded scatter.
		return nnz*15 + float64(s.sellSlots)*3 + rows*2 + 2000, true
	case sparse.FmtJDS:
		// A counting sort over row lengths plus one padding-free scatter:
		// roughly a tenth of CSR5's conversion bill.
		return nnz*10 + rows*4 + 2000, true
	default:
		return 0, false
	}
}

// Costs implements Oracle: a format is priced when it fits
// sparse.DefaultLimits, the limits the conversions enforce.
func (o *ModelOracle) Costs(a *sparse.CSR) Costs {
	s := statsOf(a)
	csr, _ := o.spmvTime(s, sparse.FmtCSR)
	c := newCosts(csr)
	for _, f := range sparse.AllFormats {
		if f == sparse.FmtCSR {
			continue
		}
		spmv, oks := o.spmvTime(s, f)
		conv, okc := o.convertTime(s, f)
		if oks && okc && sparse.DefaultLimits.Fits(f, s.geometry()) {
			c.Convert[f], c.SpMV[f] = conv, spmv
		}
	}
	return c
}

func (o *ModelOracle) spmvTime(s *modelStats, f sparse.Format) (float64, bool) {
	ops, ok := spmvOps(s, f)
	return ops * elementOp * o.jitter(s.nnz, s.rows, f, 1), ok
}

func (o *ModelOracle) convertTime(s *modelStats, f sparse.Format) (float64, bool) {
	ops, ok := convertOps(s, f)
	return ops * elementOp * o.jitter(s.nnz, s.rows, f, 2), ok
}

// FeatureTime implements Oracle. Feature extraction makes several passes
// over the CSR arrays plus a log-factor neighbor search, landing in the
// paper's observed "2x-4x of a SpMV call" band.
func (o *ModelOracle) FeatureTime(a *sparse.CSR) float64 {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	ops := float64(nnz)*6 + float64(rows)*2 + float64(cols)
	return ops * elementOp * o.jitter(nnz, rows, sparse.FmtCSR, 3)
}
