package ocs

import (
	"math/rand"

	"repro/internal/matgen"
)

// The generator wrappers below expose the synthetic corpus families through
// the public API so example programs and downstream users can produce
// workloads without reaching into internal packages.

// BandedMatrix generates an n x n matrix with nd fully occupied diagonals —
// the DIA-friendly family.
func BandedMatrix(n, nd int, seed int64) (*CSRMatrix, error) {
	return matgen.Banded(n, nd, rand.New(rand.NewSource(seed)))
}

// Stencil2DMatrix generates the five-point Laplacian on a k x k grid, an
// SPD matrix with k^2 rows.
func Stencil2DMatrix(k int) (*CSRMatrix, error) {
	return matgen.Stencil2D(k)
}

// RandomMatrix generates an m x n uniform scatter matrix averaging deg
// nonzeros per row.
func RandomMatrix(m, n, deg int, seed int64) (*CSRMatrix, error) {
	return matgen.Random(m, n, deg, rand.New(rand.NewSource(seed)))
}

// PowerLawMatrix generates an n x n matrix with power-law row degrees — a
// web-graph-like adjacency structure.
func PowerLawMatrix(n, deg int, seed int64) (*CSRMatrix, error) {
	return matgen.PowerLaw(n, n, deg, 2.1, rand.New(rand.NewSource(seed)))
}

// SPDMatrix generates a random symmetric positive definite n x n system
// suitable for CG.
func SPDMatrix(n, deg int, seed int64) (*CSRMatrix, error) {
	base, err := matgen.Random(n, n, deg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return matgen.MakeSPD(base)
}

// RMATGraph generates a 2^scale-vertex R-MAT (Kronecker) web graph with the
// classic (0.57, 0.19, 0.19, 0.05) parameterization.
func RMATGraph(scale int, seed int64) (*CSRMatrix, error) {
	return matgen.RMAT(scale, rand.New(rand.NewSource(seed)))
}
