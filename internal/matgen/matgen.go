// Package matgen generates the synthetic matrix corpus that stands in for
// the SuiteSparse collection used in the paper. The families span the
// structural axes the paper's feature set measures — diagonal structure,
// row-length regularity, blockiness, density and skew — so that different
// matrices genuinely favor different storage formats, which is the property
// the format-selection experiments need.
//
// Every generator is deterministic for a given seed.
package matgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/sparse"
)

// Family identifies a structural family of synthetic matrices.
type Family int

// The structural families in the corpus.
const (
	// Banded matrices with a handful of fully occupied diagonals: the
	// DIA-friendly family.
	FamBanded Family = iota
	// 2D five-point Laplacian stencils on a k x k grid: banded, SPD.
	FamStencil2D
	// 3D seven-point Laplacian stencils on a k x k x k grid.
	FamStencil3D
	// Uniform random scatter with a fixed expected row degree.
	FamRandom
	// Rows of identical length with random columns: the ELL-friendly family.
	FamUniformRows
	// Power-law row degrees (a few very long rows): the HYB-friendly family.
	FamPowerLaw
	// Dense blocks scattered on a block grid: the BSR-friendly family.
	FamBlock
	// Diagonally dominant SPD matrices for the solver applications.
	FamSPD
	numFamilies
)

// NumFamilies is the number of corpus families.
const NumFamilies = int(numFamilies)

var familyNames = [...]string{
	FamBanded:      "banded",
	FamStencil2D:   "stencil2d",
	FamStencil3D:   "stencil3d",
	FamRandom:      "random",
	FamUniformRows: "uniform",
	FamPowerLaw:    "powerlaw",
	FamBlock:       "block",
	FamSPD:         "spd",
}

// String returns the family's lower-case name.
func (f Family) String() string {
	if f < 0 || int(f) >= len(familyNames) {
		return fmt.Sprintf("Family(%d)", int(f))
	}
	return familyNames[f]
}

// AllFamilies lists every family. The slice is shared; do not mutate.
var AllFamilies = []Family{
	FamBanded, FamStencil2D, FamStencil3D, FamRandom,
	FamUniformRows, FamPowerLaw, FamBlock, FamSPD,
}

// Spec describes one synthetic matrix. Size is a rough scale parameter whose
// meaning is family-specific (target rows for most families, grid edge for
// stencils). Degree is the target average row degree where applicable.
type Spec struct {
	Name   string
	Family Family
	Size   int
	Degree int
	Seed   int64
}

// Generate builds the matrix described by the spec in CSR form.
func Generate(s Spec) (*sparse.CSR, error) {
	if s.Size <= 0 {
		return nil, fmt.Errorf("matgen: spec %q has non-positive size %d", s.Name, s.Size)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	deg := s.Degree
	if deg <= 0 {
		deg = 8
	}
	switch s.Family {
	case FamBanded:
		return Banded(s.Size, deg, rng)
	case FamStencil2D:
		return Stencil2D(gridEdge2D(s.Size))
	case FamStencil3D:
		return Stencil3D(gridEdge3D(s.Size))
	case FamRandom:
		return Random(s.Size, s.Size, deg, rng)
	case FamUniformRows:
		return UniformRows(s.Size, s.Size, deg, rng)
	case FamPowerLaw:
		return PowerLaw(s.Size, s.Size, deg, 2.1, rng)
	case FamBlock:
		return Block(s.Size, blockEdge, deg, rng)
	case FamSPD:
		base, err := Random(s.Size, s.Size, deg, rng)
		if err != nil {
			return nil, err
		}
		// Strong dominance: these systems converge fast, populating the
		// short-loop end of the experiments where conversion must not pay.
		return makeSPDMargin(base, 1.0, 1.0)
	default:
		return nil, fmt.Errorf("matgen: unknown family %v", s.Family)
	}
}

// blockEdge is the dense block edge of the block family.
const blockEdge = 4

// EstimateNNZ estimates how many nonzeros Generate(s) makes, without making
// them: rows times the family's mean row degree, for most families the size
// its generator reserves up front. For a matrix with more rows than its
// degree the realized count is within a factor of two of it, so a caller
// with a nonzero budget can refuse a spec before paying for it. A
// non-positive Size estimates 0 (Generate refuses it).
func EstimateNNZ(s Spec) int64 {
	if s.Size <= 0 {
		return 0
	}
	n, deg := float64(s.Size), float64(s.Degree)
	if s.Degree <= 0 {
		deg = 8
	}
	var est float64
	switch s.Family {
	case FamStencil2D:
		k := max(2, math.Floor(math.Sqrt(n)+1e-9)) // gridEdge2D without the loop
		n = k * k
		est = 5 * n
	case FamStencil3D:
		k := max(2, math.Floor(math.Cbrt(n)+1e-9))
		n = k * k * k
		est = 7 * n
	case FamBlock:
		bn := math.Ceil(n / blockEdge)
		est = bn * min(max(math.Floor(deg/blockEdge), 1), bn) * blockEdge * blockEdge
	case FamPowerLaw:
		// The truncated power law's mean row degree is 0.5-0.9 deg between
		// 10^3 and 10^9 rows (its tail grows with the n/2 cap), never below 1.
		est = n * max(deg/2, 1)
	case FamSPD:
		// A + Aᵀ over a random base, plus the diagonal.
		est = n * (2*deg + 1)
	default:
		// Banded, random and uniform rows: deg entries a row on average.
		est = n * deg
	}
	return int64(min(est, n*n, 1<<62)) // n rows of at most n entries
}

// gridEdge2D converts a target row count into a grid edge >= 2.
func gridEdge2D(rows int) int {
	k := 2
	for (k+1)*(k+1) <= rows {
		k++
	}
	return k
}

// gridEdge3D converts a target row count into a grid edge >= 2.
func gridEdge3D(rows int) int {
	k := 2
	for (k+1)*(k+1)*(k+1) <= rows {
		k++
	}
	return k
}

// triplets is the buffer a generator emits into before the one assembly
// (sparse.CSRFromTriplets), sized once from the count the generator already
// knows so that 4M entries do not regrow three slices forty times each.
type triplets struct {
	ri, ci []int32
	v      []float64
}

func newTriplets(n int) *triplets {
	return &triplets{ri: make([]int32, 0, n), ci: make([]int32, 0, n), v: make([]float64, 0, n)}
}

func (t *triplets) add(i, j int, val float64) {
	t.ri = append(t.ri, int32(i))
	t.ci = append(t.ci, int32(j))
	t.v = append(t.v, val)
}

func (t *triplets) csr(rows, cols int) (*sparse.CSR, error) {
	return sparse.CSRFromTriplets(rows, cols, t.ri, t.ci, t.v)
}

// Banded generates an n x n matrix with nd fully occupied diagonals at
// random offsets inside a band of half-width 3*nd (the main diagonal is
// always included). Values are uniform in [0.5, 1.5).
func Banded(n, nd int, rng *rand.Rand) (*sparse.CSR, error) {
	if nd < 1 {
		nd = 1
	}
	half := 3 * nd
	if half >= n {
		half = n - 1
	}
	offsets := map[int]bool{0: true}
	for len(offsets) < nd && len(offsets) < 2*half+1 {
		offsets[rng.Intn(2*half+1)-half] = true
	}
	offs := make([]int, 0, len(offsets))
	total := 0
	for k := range offsets {
		offs = append(offs, k)
		total += n - max(k, -k)
	}
	sort.Ints(offs)
	// Diagonal by diagonal, the order the values have always been drawn in;
	// the assembly's bucketing turns it into rows that are already sorted.
	t := newTriplets(total)
	for _, k := range offs {
		lo, hi := 0, n
		if k < 0 {
			lo = -k
		}
		if n-k < hi {
			hi = n - k
		}
		for i := lo; i < hi; i++ {
			t.add(i, i+k, 0.5+rng.Float64())
		}
	}
	return t.csr(n, n)
}

// Stencil2D generates the five-point Laplacian on a k x k grid: an SPD
// matrix of k^2 rows with at most 5 diagonals. The family has no random
// part: a Spec's Seed is ignored, and every stencil of one size is the same
// matrix.
func Stencil2D(k int) (*sparse.CSR, error) {
	n := k * k
	t := newTriplets(5 * n)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			i := y*k + x
			t.add(i, i, 4)
			if x > 0 {
				t.add(i, i-1, -1)
			}
			if x < k-1 {
				t.add(i, i+1, -1)
			}
			if y > 0 {
				t.add(i, i-k, -1)
			}
			if y < k-1 {
				t.add(i, i+k, -1)
			}
		}
	}
	return t.csr(n, n)
}

// Stencil3D generates the seven-point Laplacian on a k^3 grid. Like
// Stencil2D it takes no seed.
func Stencil3D(k int) (*sparse.CSR, error) {
	n := k * k * k
	t := newTriplets(7 * n)
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				i := (z*k+y)*k + x
				t.add(i, i, 6)
				if x > 0 {
					t.add(i, i-1, -1)
				}
				if x < k-1 {
					t.add(i, i+1, -1)
				}
				if y > 0 {
					t.add(i, i-k, -1)
				}
				if y < k-1 {
					t.add(i, i+k, -1)
				}
				if z > 0 {
					t.add(i, i-k*k, -1)
				}
				if z < k-1 {
					t.add(i, i+k*k, -1)
				}
			}
		}
	}
	return t.csr(n, n)
}

// Random generates an m x n matrix where each row holds Poisson-ish
// (1 + Binomial-approximated) random entries averaging deg per row, at
// uniform random columns.
func Random(m, n, deg int, rng *rand.Rand) (*sparse.CSR, error) {
	t := newTriplets(m * min(deg, n)) // the mean; append absorbs the rest
	var cs colSampler
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(2*deg-1) // uniform on [1, 2*deg-1], mean deg
		if k > n {
			k = n
		}
		for _, c := range cs.sample(n, k, rng) {
			t.add(i, c, rng.NormFloat64())
		}
	}
	return t.csr(m, n)
}

// UniformRows generates an m x n matrix with exactly deg entries in every
// row at random columns: zero row-length variance, the ELL sweet spot.
func UniformRows(m, n, deg int, rng *rand.Rand) (*sparse.CSR, error) {
	if deg > n {
		deg = n
	}
	t := newTriplets(m * deg)
	var cs colSampler
	for i := 0; i < m; i++ {
		for _, c := range cs.sample(n, deg, rng) {
			t.add(i, c, rng.NormFloat64())
		}
	}
	return t.csr(m, n)
}

// PowerLaw generates an m x n matrix whose row degrees follow a truncated
// power law with the given exponent: most rows short, a few very long,
// which is the regime where HYB beats ELL.
func PowerLaw(m, n, deg int, exponent float64, rng *rand.Rand) (*sparse.CSR, error) {
	maxDeg := n / 2
	if maxDeg < deg {
		maxDeg = deg
	}
	t := newTriplets(m * min(deg, n)) // near the mean the degrees are scaled to
	var cs colSampler
	for i := 0; i < m; i++ {
		k := powerLawDegree(deg, maxDeg, exponent, rng)
		if k > n {
			k = n
		}
		for _, c := range cs.sample(n, k, rng) {
			t.add(i, c, rng.NormFloat64())
		}
	}
	return t.csr(m, n)
}

// powerLawDegree samples a degree in [1, maxDeg] with P(k) proportional to
// k^-exponent, scaled so the mean is near deg.
func powerLawDegree(deg, maxDeg int, exponent float64, rng *rand.Rand) int {
	// Inverse-CDF sampling of a Pareto-like distribution with minimum 1,
	// then scale to hit the target mean approximately.
	u := rng.Float64()
	x := 1.0
	if exponent > 1 {
		x = 1.0 / math.Pow(1-u, 1.0/(exponent-1))
	}
	k := int(x * float64(deg) * (exponent - 2) / (exponent - 1))
	if k < 1 {
		k = 1
	}
	if k > maxDeg {
		k = maxDeg
	}
	return k
}

// Block generates an n x n matrix from dense bs x bs blocks scattered on
// the block grid so each block row holds about deg/bs blocks.
func Block(n, bs, deg int, rng *rand.Rand) (*sparse.CSR, error) {
	if bs < 1 {
		bs = 1
	}
	bn := (n + bs - 1) / bs
	blocksPerRow := deg / bs
	if blocksPerRow < 1 {
		blocksPerRow = 1
	}
	if blocksPerRow > bn {
		blocksPerRow = bn
	}
	t := newTriplets(bn * blocksPerRow * bs * bs)
	var cs colSampler
	for bi := 0; bi < bn; bi++ {
		for _, bj := range cs.sample(bn, blocksPerRow, rng) {
			for ii := 0; ii < bs; ii++ {
				for jj := 0; jj < bs; jj++ {
					r := bi*bs + ii
					c := bj*bs + jj
					if r >= n || c >= n {
						continue
					}
					t.add(r, c, rng.NormFloat64())
				}
			}
		}
	}
	return t.csr(n, n)
}

// MakeSPD symmetrizes a square matrix and adds a diagonal shift just large
// enough to make it strictly diagonally dominant (hence SPD). The default
// margin is deliberately weak so the resulting systems are SPD but not
// trivially conditioned — iterative solvers then run long enough for format
// conversion to be worth considering, the regime the paper's experiments
// live in.
func MakeSPD(a *sparse.CSR) (*sparse.CSR, error) {
	return makeSPDMargin(a, spdMargin, spdFloor)
}

// makeSPDMargin is MakeSPD with explicit dominance margin and floor: the
// diagonal is raised to at least (1+margin)*offDiagAbsSum + floor.
func makeSPDMargin(a *sparse.CSR, margin, floor float64) (*sparse.CSR, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("matgen: MakeSPD needs a square matrix, got %dx%d", rows, cols)
	}
	// (A + A^T)/2, a row of A then the same row of A^T: each half arrives
	// sorted, the assembly merges the two and sums where they overlap.
	at := a.Transpose()
	t := newTriplets(2 * a.NNZ())
	for i := 0; i < rows; i++ {
		for _, m := range [2]*sparse.CSR{a, at} {
			for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
				t.add(i, int(m.Col[k]), 0.5*m.Data[k])
			}
		}
	}
	sym, err := t.csr(rows, cols)
	if err != nil {
		return nil, err
	}
	return raiseDiagonal(sym, margin, floor)
}

// MakeDominant raises a square matrix's diagonal until it strictly
// dominates each row, WITHOUT symmetrizing — the resulting system is
// solvable by BiCGSTAB/GMRES/Jacobi but generally not by CG (not
// symmetric). The margin semantics match makeSPDMargin.
func MakeDominant(a *sparse.CSR, margin float64) (*sparse.CSR, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("matgen: MakeDominant needs a square matrix, got %dx%d", rows, cols)
	}
	return raiseDiagonal(a, margin, spdFloor)
}

// raiseDiagonal returns a copy of the square matrix a whose diagonal is at
// least (1 + margin) * sum_{j != i} |a_ij| + floor in every row, accounting
// for whatever diagonal value is already there (possibly negative). A stored
// diagonal entry is added to; a missing one is inserted in column order. The
// matrix is not re-assembled to move one entry a row.
func raiseDiagonal(a *sparse.CSR, margin, floor float64) (*sparse.CSR, error) {
	rows, cols := a.Dims()
	add := make([]float64, rows) // > 0 where the diagonal must rise
	inserts := 0
	for i := 0; i < rows; i++ {
		var rowAbs, diag float64
		stored := false
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if int(a.Col[k]) != i {
				rowAbs += abs(a.Data[k])
			} else {
				diag, stored = a.Data[k], true
			}
		}
		if add[i] = rowAbs*(1+margin) + floor - diag; add[i] > 0 && !stored {
			inserts++
		}
	}
	ptr := make([]int, rows+1)
	col := make([]int32, 0, a.NNZ()+inserts)
	data := make([]float64, 0, a.NNZ()+inserts)
	for i := 0; i < rows; i++ {
		placed := add[i] <= 0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			c, v := a.Col[k], a.Data[k]
			if !placed && int(c) >= i {
				placed = true
				if int(c) == i {
					v += add[i]
				} else {
					col = append(col, int32(i))
					data = append(data, add[i])
				}
			}
			col = append(col, c)
			data = append(data, v)
		}
		if !placed {
			col = append(col, int32(i))
			data = append(data, add[i])
		}
		ptr[i+1] = len(col)
	}
	return sparse.NewCSR(rows, cols, ptr, col, data)
}

// spdMargin and spdFloor control how strongly MakeSPD dominates the
// diagonal; see the comment inside MakeSPD.
const (
	spdMargin = 0.02
	spdFloor  = 0.01
)

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// colSampler draws distinct column indices, reusing its buffers from row to
// row. Its sequence of rng calls is part of every seeded matrix's identity
// (TestGeneratorsBitIdenticalToRecorded): how "already drawn" is answered may
// change, which draws are made and which are kept may not.
type colSampler struct {
	out   []int
	stamp []int32 // stamp[c] == epoch: c is in out
	epoch int32
}

// scanLimit is the sample size up to which "already drawn" is a scan of the
// sample itself: at most 120 comparisons in one cache line or two, against a
// stamp lookup that misses once n columns stop fitting the cache.
const scanLimit = 16

// sample draws k distinct column indices from [0, n) uniformly. For small k
// it rejection-samples; for large k it does a partial Fisher-Yates. The
// result is unsorted (the assembly sorts later) and valid until the next call.
func (s *colSampler) sample(n, k int, rng *rand.Rand) []int {
	if k >= n {
		s.out = s.out[:0]
		for i := 0; i < n; i++ {
			s.out = append(s.out, i)
		}
		return s.out
	}
	if k*8 >= n {
		return rng.Perm(n)[:k]
	}
	s.out = s.out[:0]
	if k <= scanLimit {
		for len(s.out) < k {
			c := rng.Intn(n)
			if !slices.Contains(s.out, c) {
				s.out = append(s.out, c)
			}
		}
		return s.out
	}
	if len(s.stamp) < n || s.epoch == math.MaxInt32 {
		s.stamp, s.epoch = make([]int32, n), 0
	}
	s.epoch++
	for len(s.out) < k {
		c := rng.Intn(n)
		if s.stamp[c] != s.epoch {
			s.stamp[c] = s.epoch
			s.out = append(s.out, c)
		}
	}
	return s.out
}
