package matgen

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func TestRMATBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RMAT(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := g.Dims()
	if rows != 1024 || cols != 1024 {
		t.Fatalf("dims %dx%d, want 1024x1024", rows, cols)
	}
	if g.NNZ() < 1024*8 {
		t.Errorf("only %d edges (heavy duplicate collapse?)", g.NNZ())
	}
	for _, v := range g.Data {
		if v != 1 {
			t.Fatalf("edge weight %g, want 1", v)
		}
	}
}

func TestRMATDegreeSkew(t *testing.T) {
	// The 0.57/0.19/0.19/0.05 parameterization concentrates edges in the
	// low-index corner: the max out-degree must dwarf the average.
	rng := rand.New(rand.NewSource(2))
	g, err := RMAT(12, rng)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := g.Dims()
	avg := float64(g.NNZ()) / float64(rows)
	if float64(g.MaxRowNNZ()) < 8*avg {
		t.Errorf("max degree %d vs avg %.1f: not skewed", g.MaxRowNNZ(), avg)
	}
	// Low-index vertices should be hubs.
	if g.RowNNZ(0) < int(avg) {
		t.Errorf("vertex 0 degree %d below average %.1f", g.RowNNZ(0), avg)
	}
}

func TestRMATDeterministic(t *testing.T) {
	g1, err := RMAT(8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sparse.EqualValues(g1, g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("same seed produced different graphs")
	}
}

func TestRMATValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := RMAT(0, rng); err == nil {
		t.Error("scale 0 accepted")
	}
}
