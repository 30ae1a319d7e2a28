package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// hiddenBandCorpus generates banded matrices whose rows/columns have been
// symmetrically shuffled: band structure exists but is invisible until a
// bandwidth-reducing reordering recovers it.
func hiddenBandCorpus(seed int64, count, minSize, maxSize int) ([]*sparse.CSR, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*sparse.CSR, 0, count)
	for i := 0; i < count; i++ {
		size := minSize + rng.Intn(maxSize-minSize+1)
		banded, err := matgen.Banded(size, 2+rng.Intn(5), rng)
		if err != nil {
			return nil, err
		}
		n, _ := banded.Dims()
		perm := make([]int32, n)
		for j, p := range rng.Perm(n) {
			perm[j] = int32(p)
		}
		shuffled, err := reorder.Apply(banded, perm)
		if err != nil {
			return nil, err
		}
		out = append(out, shuffled)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// A5 — reordering as part of the decision space.
//
// Bandwidth-reducing reordering (RCM) changes which formats a matrix can
// even use: a scattered matrix may reject DIA outright while its permuted
// twin accepts it. This ablation extends the oracle overhead-conscious
// decision with a "reorder first, then pick a format" option whose
// reordering cost is charged like a conversion, and measures how often and
// by how much the larger decision space wins.

// reorderOpsPerNNZ models the cost of RCM + symmetric permutation in
// element-ops per nonzero (graph BFS with degree sorting plus a full
// rebuild), charged against the matrix's CSR SpMV time.
const reorderOpsPerNNZ = 50

// AblationReorderRow is one loop-length comparison.
type AblationReorderRow struct {
	Iters float64
	// FormatsOnly / WithReorder are geometric-mean realized speedups of
	// the oracle-OC decision without and with the reorder option.
	FormatsOnly, WithReorder float64
	// ReorderWins counts matrices where the reorder branch is chosen.
	ReorderWins int
	// DIAUnlocked counts matrices where DIA is valid only after RCM.
	DIAUnlocked int
}

// AblationReorder is the reordering ablation result.
type AblationReorder struct {
	Rows []AblationReorderRow
}

// RunAblationReorder evaluates the extended decision space on the
// evaluation corpus (square matrices only).
func (c *Context) RunAblationReorder(iters ...float64) (*AblationReorder, error) {
	if len(iters) == 0 {
		iters = []float64{100, 1000, 5000}
	}
	type pair struct {
		orig      *trainer.Sample
		reordered trainer.Sample
		reorderN  float64 // reordering cost in CSR-SpMV units
		diaGain   bool
	}
	var pairs []pair
	addPair := func(name string, m *sparse.CSR, s *trainer.Sample) {
		rows, cols := m.Dims()
		if rows != cols {
			return
		}
		perm, err := reorder.RCM(m)
		if err != nil {
			return
		}
		rm, err := reorder.Apply(m, perm)
		if err != nil {
			return
		}
		rs, err := collectOne(name+"-rcm", rm, c.Oracle)
		if err != nil {
			return
		}
		// Reorder cost in CSR-SpMV units, using the oracle's element-op
		// scale implied by the matrix's own SpMV time.
		spmvOpsApprox := 2.0 * float64(m.NNZ())
		reorderN := reorderOpsPerNNZ * float64(m.NNZ()) / spmvOpsApprox
		_, origDIA := s.SpMVNorm[sparse.FmtDIA]
		_, rcmDIA := rs.SpMVNorm[sparse.FmtDIA]
		pairs = append(pairs, pair{
			orig:      s,
			reordered: rs,
			reorderN:  reorderN,
			diaGain:   !origDIA && rcmDIA,
		})
	}
	for i := range c.EvalSamples {
		addPair(c.EvalSamples[i].Name, c.EvalEntries[i].Matrix, &c.EvalSamples[i])
	}
	// The evaluation corpus has no hidden-band matrices (its banded family
	// is already well ordered, its scatter families genuinely have no band
	// to find). Add the case RCM exists for: banded structure destroyed by
	// a bad node numbering, the FEM-mesh-with-random-labels situation.
	hidden, err := hiddenBandCorpus(c.Opt.Seed+7, 12, c.Opt.MinSize, c.Opt.MaxSize)
	if err != nil {
		return nil, err
	}
	for i := range hidden {
		s, err := collectOne(fmt.Sprintf("hiddenband-%02d", i), hidden[i], c.Oracle)
		if err != nil {
			continue
		}
		addPair(s.Name, hidden[i], &s)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no reorderable matrices in corpus")
	}

	out := &AblationReorder{}
	for _, it := range iters {
		row := AblationReorderRow{Iters: it}
		var plain, ext []float64
		for _, p := range pairs {
			if p.diaGain {
				row.DIAUnlocked++
			}
			fPlain := core.OracleDecide(p.orig.ConvNorm, p.orig.SpMVNorm, it)
			costPlain := realizedCost(p.orig, fPlain, it)

			// Reorder branch: the reordered matrix's SpMV times are
			// normalized by ITS OWN CSR time; rescale to the original
			// matrix's units through the two absolute CSR times.
			scale := p.reordered.CSRTime / p.orig.CSRTime
			fRe := core.OracleDecide(p.reordered.ConvNorm, p.reordered.SpMVNorm, it)
			costRe := p.reorderN + realizedCost(&p.reordered, fRe, it)*scale

			costExt := costPlain
			if costRe < costExt {
				costExt = costRe
				row.ReorderWins++
			}
			plain = append(plain, it/costPlain)
			ext = append(ext, it/costExt)
		}
		row.DIAUnlocked /= len(iters) // counted once per pair, not per iter
		row.FormatsOnly = geomean(plain)
		row.WithReorder = geomean(ext)
		out.Rows = append(out.Rows, row)
	}
	// DIAUnlocked is per-corpus, not per-iteration: recompute cleanly.
	unlocked := 0
	for _, p := range pairs {
		if p.diaGain {
			unlocked++
		}
	}
	for i := range out.Rows {
		out.Rows[i].DIAUnlocked = unlocked
	}
	return out, nil
}

// Render prints the comparison.
func (a *AblationReorder) Render() string {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", r.Iters),
			fmt.Sprintf("%.3f", r.FormatsOnly),
			fmt.Sprintf("%.3f", r.WithReorder),
			fmt.Sprintf("%d", r.ReorderWins),
			fmt.Sprintf("%d", r.DIAUnlocked),
		})
	}
	return "Ablation A5: adding RCM reordering to the decision space (oracle selection)\n" +
		table([]string{"Iters", "Formats only", "With reorder", "Reorder wins", "DIA unlocked"}, rows)
}
