package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func mustCSR(t *testing.T, rows, cols int, dense []float64) *sparse.CSR {
	t.Helper()
	m, err := sparse.FromDense(rows, cols, dense)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExtractHandComputed(t *testing.T) {
	// 3x4:
	// 1 0 2 0
	// 0 3 0 0
	// 4 0 5 6
	m := mustCSR(t, 3, 4, []float64{
		1, 0, 2, 0,
		0, 3, 0, 0,
		4, 0, 5, 6,
	})
	s := Extract(m)
	if s.M != 3 || s.N != 4 || s.NNZ != 6 {
		t.Fatalf("M,N,NNZ = %v,%v,%v", s.M, s.N, s.NNZ)
	}
	// Row degrees: 2, 1, 3.
	if s.AverRD != 2 || s.MaxRD != 3 || s.MinRD != 1 {
		t.Errorf("RD stats = %v/%v/%v", s.AverRD, s.MaxRD, s.MinRD)
	}
	wantDev := math.Sqrt((4.0 + 1 + 9) / 3.0 * 1.0 / 1.0 * 1.0) // E[x^2]-mu^2 = 14/3-4
	wantDev = math.Sqrt(14.0/3.0 - 4.0)
	if math.Abs(s.DevRD-wantDev) > 1e-12 {
		t.Errorf("DevRD = %v, want %v", s.DevRD, wantDev)
	}
	// Column degrees: 2, 1, 2, 1.
	if s.AverCD != 1.5 || s.MaxCD != 2 || s.MinCD != 1 {
		t.Errorf("CD stats = %v/%v/%v", s.AverCD, s.MaxCD, s.MinCD)
	}
	// Row bounce: |1-2| + |3-1| = 3 over 2 gaps.
	if s.RowBounce != 1.5 {
		t.Errorf("RowBounce = %v, want 1.5", s.RowBounce)
	}
	// Col bounce: |1-2|+|2-1|+|1-2| = 3 over 3 gaps.
	if s.ColBounce != 1 {
		t.Errorf("ColBounce = %v, want 1", s.ColBounce)
	}
	// Density 6/12.
	if s.Density != 0.5 {
		t.Errorf("Density = %v, want 0.5", s.Density)
	}
	// Diagonals: offsets of entries: (0,0)->0 (0,2)->2 (1,1)->0 (2,0)->-2 (2,2)->0 (2,3)->1.
	// Distinct: {-2, 0, 1, 2} -> 4 diagonals.
	if s.Ndiags != 4 {
		t.Errorf("Ndiags = %v, want 4", s.Ndiags)
	}
	// True diagonals: offset 0 has 3/3 = full (len 3): true. Offset -2: 1/1:
	// true. Offset 1: 1/min(len)=? diag 1 length = min(3, 4-1)=3 -> 1/3 <
	// 0.6 not true. Offset 2: length min(3, 2)=2 -> 1/2 < 0.6 not true.
	if s.NTdiagsRatio != 0.5 {
		t.Errorf("NTdiagsRatio = %v, want 0.5", s.NTdiagsRatio)
	}
	// ER_DIA = 6/(4*3), ER_RD = 6/(3*3), ER_CD = 6/(4*2).
	if math.Abs(s.ERDIA-0.5) > 1e-12 || math.Abs(s.ERRD-6.0/9) > 1e-12 || math.Abs(s.ERCD-0.75) > 1e-12 {
		t.Errorf("ER = %v/%v/%v", s.ERDIA, s.ERRD, s.ERCD)
	}
	// CV and MaxMu.
	if math.Abs(s.CV-wantDev/2) > 1e-12 {
		t.Errorf("CV = %v", s.CV)
	}
	if s.MaxMu != 1 {
		t.Errorf("MaxMu = %v, want 1", s.MaxMu)
	}
	// Blocks with edge 2: block rows {0,1}, {2}; block cols {0,1},{2,3}.
	// Nonzero blocks: (0,0): entries (0,0),(1,1) yes; (0,1): (0,2) yes;
	// (1,0): (2,0) yes; (1,1): (2,2),(2,3) yes -> 4.
	if s.Blocks != 4 {
		t.Errorf("Blocks = %v, want 4", s.Blocks)
	}
	// MeanNeighbor: neighbors among 4-neighborhood.
	// (0,0): right(0,1)no, (1,0)no -> 0... check all:
	// (0,0): (0,1)=0,( -1,0),(1,0)=0 -> 0
	// (0,2): (0,1)=0,(0,3)=0,(1,2)=0 -> 0
	// (1,1): (1,0)=0,(1,2)=0,(0,1)=0,(2,1)=0 -> 0
	// (2,0): (2,1)=0,(1,0)=0 -> 0
	// (2,2): (2,1)=0,(2,3)=6 yes,(1,2)=0 -> 1
	// (2,3): (2,2) yes -> 1
	// total 2/6.
	if math.Abs(s.MeanNeighbor-2.0/6) > 1e-12 {
		t.Errorf("MeanNeighbor = %v, want %v", s.MeanNeighbor, 2.0/6)
	}
}

func TestVectorOrderMatchesNames(t *testing.T) {
	s := &Set{M: 1, N: 2, NNZ: 3, Ndiags: 4, NTdiagsRatio: 5, AverRD: 6,
		MaxRD: 7, MinRD: 8, DevRD: 9, AverCD: 10, MaxCD: 11, MinCD: 12,
		DevCD: 13, ERDIA: 14, ERRD: 15, ERCD: 16, RowBounce: 17,
		ColBounce: 18, Density: 19, CV: 20, MaxMu: 21, Blocks: 22,
		MeanNeighbor: 23}
	v := s.Vector()
	if len(v) != NumFeatures || len(v) != len(Names) {
		t.Fatalf("Vector length %d, Names %d", len(v), len(Names))
	}
	for i, x := range v {
		if x != float64(i+1) {
			t.Errorf("Vector[%d] (%s) = %v, want %v", i, Names[i], x, i+1)
		}
	}
}

func TestExtractEmptyAndDegenerate(t *testing.T) {
	empty, err := sparse.NewCSR(3, 3, []int{0, 0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Extract(empty)
	if s.NNZ != 0 || s.Density != 0 || s.Ndiags != 0 || s.MeanNeighbor != 0 {
		t.Errorf("empty: NNZ=%v d=%v Ndiags=%v mean_neighbor=%v", s.NNZ, s.Density, s.Ndiags, s.MeanNeighbor)
	}
	for i, v := range s.Vector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("empty: feature %s = %v", Names[i], v)
		}
	}
	single := mustCSR(t, 1, 1, []float64{5})
	s = Extract(single)
	if s.NNZ != 1 || s.Density != 1 || s.NTdiagsRatio != 1 || s.MeanNeighbor != 0 {
		t.Errorf("single: %+v", s)
	}
}

func TestStencilFeaturesAreDIAFriendly(t *testing.T) {
	m, err := matgen.Stencil2D(30)
	if err != nil {
		t.Fatal(err)
	}
	s := Extract(m)
	if s.Ndiags != 5 {
		t.Errorf("stencil Ndiags = %v, want 5", s.Ndiags)
	}
	if s.NTdiagsRatio < 0.9 {
		t.Errorf("stencil NTdiagsRatio = %v, want ~1", s.NTdiagsRatio)
	}
	if s.ERDIA < 0.9 {
		t.Errorf("stencil ERDIA = %v, want ~1", s.ERDIA)
	}
	// A stencil is extremely regular: tiny CV.
	if s.CV > 0.2 {
		t.Errorf("stencil CV = %v, want small", s.CV)
	}
}

func TestPowerLawFeaturesAreSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := matgen.PowerLaw(1500, 1500, 8, 2.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := Extract(m)
	if s.CV < 0.5 {
		t.Errorf("power-law CV = %v, want > 0.5", s.CV)
	}
	if s.MaxMu < 10 {
		t.Errorf("power-law MaxMu = %v, want large", s.MaxMu)
	}
	if s.ERRD > 0.5 {
		t.Errorf("power-law ERRD = %v, want small (bad for ELL)", s.ERRD)
	}
}

func TestQuickFeaturesFinite(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	prop := func(seed int64, famRaw, sizeRaw uint8) bool {
		fam := matgen.AllFamilies[int(famRaw)%len(matgen.AllFamilies)]
		size := int(sizeRaw)%300 + 30
		m, err := matgen.Generate(matgen.Spec{Name: "q", Family: fam, Size: size, Degree: 5, Seed: seed})
		if err != nil {
			return false
		}
		s := Extract(m)
		for _, v := range s.Vector() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		// Basic sanity: bounds between min/avg/max degrees.
		return s.MinRD <= s.AverRD && s.AverRD <= s.MaxRD &&
			s.MinCD <= s.AverCD && s.AverCD <= s.MaxCD &&
			s.Density >= 0 && s.Density <= 1 &&
			s.NTdiagsRatio >= 0 && s.NTdiagsRatio <= 1
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickERBoundsAndBlocks(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := matgen.Random(rng.Intn(200)+20, rng.Intn(200)+20, rng.Intn(8)+1, rng)
		if err != nil {
			return false
		}
		s := Extract(m)
		// Efficiency ratios are in (0, 1]; blocks can't exceed nnz and
		// can't be fewer than nnz / BlockEdge^2.
		if s.ERDIA <= 0 || s.ERDIA > 1 || s.ERRD <= 0 || s.ERRD > 1 || s.ERCD <= 0 || s.ERCD > 1 {
			return false
		}
		return s.Blocks <= s.NNZ && s.Blocks >= s.NNZ/(BlockEdge*BlockEdge)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
