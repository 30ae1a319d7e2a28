package matgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// CorpusConfig controls corpus generation. The defaults produce a corpus
// whose family mix and size spread play the role of the paper's 2757
// SuiteSparse matrices at laptop scale.
type CorpusConfig struct {
	// Count is the number of matrices to generate.
	Count int
	// Seed drives all randomness; the same seed reproduces the same corpus.
	Seed int64
	// MinSize and MaxSize bound the scale parameter (target rows).
	MinSize, MaxSize int
	// Families restricts generation to the given families; nil means all.
	Families []Family
}

// Entry is one corpus matrix with its provenance.
type Entry struct {
	Spec   Spec
	Matrix *sparse.CSR
}

// Corpus generates cfg.Count matrices. Specs cycle through the families so
// every family is represented; sizes are log-uniform between MinSize and
// MaxSize. The generation is deterministic for a fixed config: every spec,
// its own seed included, is drawn from cfg.Seed up front, and only then are
// the matrices generated — concurrently on the worker team, each from its
// spec alone.
func Corpus(cfg CorpusConfig) ([]Entry, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("matgen: corpus count %d", cfg.Count)
	}
	if cfg.MinSize <= 0 || cfg.MaxSize < cfg.MinSize {
		return nil, fmt.Errorf("matgen: corpus size range [%d, %d]", cfg.MinSize, cfg.MaxSize)
	}
	fams := cfg.Families
	if len(fams) == 0 {
		fams = AllFamilies
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	entries := make([]Entry, cfg.Count)
	for i := range entries {
		fam := fams[i%len(fams)]
		size := logUniform(cfg.MinSize, cfg.MaxSize, rng)
		deg := 4 + rng.Intn(24)
		entries[i].Spec = Spec{
			Name:   fmt.Sprintf("%s-%05d", fam, i),
			Family: fam,
			Size:   size,
			Degree: deg,
			Seed:   rng.Int63(),
		}
	}
	errs := make([]error, len(entries))
	parallel.ForEach(len(entries), func(i int) {
		entries[i].Matrix, errs[i] = Generate(entries[i].Spec)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("matgen: generating %q: %w", entries[i].Spec.Name, err)
		}
	}
	return entries, nil
}

// SolverCorpus generates square SPD matrices suitable for the iterative
// solver applications: 2D/3D stencils (SPD by construction), symmetrized
// banded matrices, and SPD-symmetrized randoms in equal shares.
func SolverCorpus(count int, seed int64, minSize, maxSize int) ([]Entry, error) {
	entries, err := Corpus(CorpusConfig{
		Count:    count,
		Seed:     seed,
		MinSize:  minSize,
		MaxSize:  maxSize,
		Families: []Family{FamStencil2D, FamBanded, FamSPD, FamStencil3D},
	})
	if err != nil {
		return nil, err
	}
	for i := range entries {
		if entries[i].Spec.Family == FamBanded {
			spd, err := MakeSPD(entries[i].Matrix)
			if err != nil {
				return nil, fmt.Errorf("matgen: symmetrizing %q: %w", entries[i].Spec.Name, err)
			}
			entries[i].Matrix = spd
		}
	}
	return entries, nil
}

// logUniform samples an integer log-uniformly in [lo, hi], so small and
// large matrices are equally represented on a log scale.
func logUniform(lo, hi int, rng *rand.Rand) int {
	if lo >= hi {
		return lo
	}
	u := rng.Float64()
	v := float64(lo) * math.Pow(float64(hi)/float64(lo), u)
	n := int(v)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}
