package matgen

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/features"
	"repro/internal/sparse"
)

func TestGenerateAllFamilies(t *testing.T) {
	for _, fam := range AllFamilies {
		spec := Spec{Name: "t", Family: fam, Size: 500, Degree: 8, Seed: 7}
		m, err := Generate(spec)
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		rows, cols := m.Dims()
		if rows <= 0 || cols <= 0 {
			t.Errorf("%v: dims %dx%d", fam, rows, cols)
		}
		if m.NNZ() == 0 {
			t.Errorf("%v: empty matrix", fam)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "t", Family: FamRandom, Size: 300, Degree: 6, Seed: 99}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sparse.EqualValues(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("same spec produced different matrices")
	}
	// Different seed must (overwhelmingly) differ.
	spec.Seed = 100
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	eq, err = sparse.EqualValues(a, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("different seeds produced identical matrices")
	}
}

func TestBandedIsDIAFriendly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := Banded(1000, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	diags := sparse.CSRDiagonals(m)
	if len(diags) > 5 {
		t.Errorf("banded with nd=5 produced %d diagonals", len(diags))
	}
	if !sparse.CanConvert(m, sparse.FmtDIA, sparse.DefaultLimits) {
		t.Error("banded matrix rejected by DIA limits")
	}
}

func TestStencil2DStructure(t *testing.T) {
	m, err := Stencil2D(10)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := m.Dims()
	if rows != 100 || cols != 100 {
		t.Fatalf("dims %dx%d, want 100x100", rows, cols)
	}
	// Interior point has 5 entries, corners 3.
	if got := m.RowNNZ(0); got != 3 {
		t.Errorf("corner row nnz = %d, want 3", got)
	}
	if got := m.RowNNZ(55); got != 5 {
		t.Errorf("interior row nnz = %d, want 5", got)
	}
	if len(sparse.CSRDiagonals(m)) != 5 {
		t.Errorf("stencil2d diagonals = %d, want 5", len(sparse.CSRDiagonals(m)))
	}
	assertSymmetric(t, m)
}

func TestStencil3DStructure(t *testing.T) {
	m, err := Stencil3D(5)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := m.Dims()
	if rows != 125 {
		t.Fatalf("rows = %d, want 125", rows)
	}
	if len(sparse.CSRDiagonals(m)) != 7 {
		t.Errorf("stencil3d diagonals = %d, want 7", len(sparse.CSRDiagonals(m)))
	}
	assertSymmetric(t, m)
}

func TestUniformRowsAreUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := UniformRows(200, 200, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := m.Dims()
	for i := 0; i < rows; i++ {
		if m.RowNNZ(i) != 7 {
			t.Fatalf("row %d has %d entries, want 7", i, m.RowNNZ(i))
		}
	}
}

func TestPowerLawIsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := PowerLaw(2000, 2000, 8, 2.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	maxRD := m.MaxRowNNZ()
	avg := float64(m.NNZ()) / 2000
	if float64(maxRD) < 5*avg {
		t.Errorf("power law max row %d not skewed vs avg %.1f", maxRD, avg)
	}
}

func TestBlockIsBSRFriendly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := Block(512, 4, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	bs := sparse.DefaultLimits.BSRBlockSize
	if fr := float64(features.CountBlocks(m, bs)*bs*bs) / float64(m.NNZ()); fr > 1.01 {
		t.Errorf("block matrix BSR fill ratio %.2f, want ~1", fr)
	}
}

// TestEstimateNNZWithinTwoX holds every family's realized nonzero count
// within a factor of two of EstimateNNZ, the number a server compares with
// its capacity before generating anything.
func TestEstimateNNZWithinTwoX(t *testing.T) {
	for _, fam := range AllFamilies {
		for _, size := range []int{100, 2000, 30000} {
			for _, deg := range []int{0, 3, 20} {
				spec := Spec{Family: fam, Size: size, Degree: deg, Seed: 3}
				m, err := Generate(spec)
				if err != nil {
					t.Fatal(err)
				}
				est, got := EstimateNNZ(spec), int64(m.NNZ())
				if est > 2*got || got > 2*est {
					t.Errorf("%v size %d degree %d: %d nonzeros, estimated %d", fam, size, deg, got, est)
				}
			}
		}
	}
	if got := EstimateNNZ(Spec{Family: FamUniformRows, Size: 3_000_000_000, Degree: 8}); got != 24_000_000_000 {
		t.Errorf("3e9-row uniform spec estimated at %d, want 2.4e10", got)
	}
	if got := EstimateNNZ(Spec{Family: FamStencil2D, Size: math.MaxInt}); got <= 0 {
		t.Errorf("the largest stencil spec estimated at %d, want a positive count", got)
	}
}

func TestMakeSPDDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, err := Random(150, 150, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MakeSPD(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSymmetric(t, m)
	rows, _ := m.Dims()
	for i := 0; i < rows; i++ {
		diag := m.At(i, i)
		var off float64
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			if int(m.Col[k]) != i {
				v := m.Data[k]
				if v < 0 {
					v = -v
				}
				off += v
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: diag %g, off %g", i, diag, off)
		}
	}
}

func TestMakeSPDRejectsNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base, err := Random(10, 20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MakeSPD(base); err == nil {
		t.Error("MakeSPD accepted a non-square matrix")
	}
}

func TestCorpusGeneration(t *testing.T) {
	cfg := CorpusConfig{Count: 16, Seed: 11, MinSize: 100, MaxSize: 1000}
	entries, err := Corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Fatalf("got %d entries, want 16", len(entries))
	}
	seen := map[Family]bool{}
	for _, e := range entries {
		seen[e.Spec.Family] = true
		rows, _ := e.Matrix.Dims()
		if rows < 50 {
			t.Errorf("%s: suspiciously small (%d rows)", e.Spec.Name, rows)
		}
	}
	if len(seen) != NumFamilies {
		t.Errorf("corpus covered %d families, want %d", len(seen), NumFamilies)
	}
	// Deterministic regeneration.
	again, err := Corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		eq, err := sparse.EqualValues(entries[i].Matrix, again[i].Matrix, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("corpus entry %d differs between runs", i)
		}
	}
}

func TestCorpusValidation(t *testing.T) {
	if _, err := Corpus(CorpusConfig{Count: 0, MinSize: 10, MaxSize: 20}); err == nil {
		t.Error("count=0 accepted")
	}
	if _, err := Corpus(CorpusConfig{Count: 1, MinSize: 20, MaxSize: 10}); err == nil {
		t.Error("inverted size range accepted")
	}
}

func TestSolverCorpusIsSquare(t *testing.T) {
	entries, err := SolverCorpus(8, 3, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		rows, cols := e.Matrix.Dims()
		if rows != cols {
			t.Errorf("%s: non-square %dx%d", e.Spec.Name, rows, cols)
		}
	}
}

func assertSymmetric(t *testing.T, m *sparse.CSR) {
	t.Helper()
	mt := m.Transpose()
	eq, err := sparse.EqualValues(m, mt, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("matrix not symmetric")
	}
}

func TestQuickGeneratorsProduceValidCSR(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	prop := func(seed int64, famRaw, sizeRaw uint8) bool {
		fam := AllFamilies[int(famRaw)%len(AllFamilies)]
		size := int(sizeRaw)%400 + 50
		m, err := Generate(Spec{Name: "q", Family: fam, Size: size, Degree: 5, Seed: seed})
		if err != nil {
			return false
		}
		// NewCSR validates; reaching here with nnz>0 and sane dims is the property.
		rows, cols := m.Dims()
		return rows > 0 && cols > 0 && m.NNZ() > 0
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCorpusSameAtAnyWorkerCount: entries are generated concurrently, each
// from a spec drawn up front, so the corpus is the one a single worker
// generates one entry after another — same names, structure and values.
func TestCorpusSameAtAnyWorkerCount(t *testing.T) {
	cfg := CorpusConfig{Count: 20, Seed: 42, MinSize: 200, MaxSize: 3000}
	identity := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		entries, err := Corpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(entries))
		for i, e := range entries {
			ids[i] = e.Spec.Name + " " + e.Matrix.Fingerprint() + " " + e.Matrix.ValueDigest()
		}
		return ids
	}
	want := identity(1)
	for _, procs := range []int{2, 4} {
		for i, got := range identity(procs) {
			if got != want[i] {
				t.Errorf("GOMAXPROCS=%d entry %d: %s, one worker generated %s", procs, i, got, want[i])
			}
		}
	}
}
