package server

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/sparse"
)

// TestSpMVPooledBuffersInterleavedSizes interleaves requests against two
// matrices of different dimensions so the handlers recycle buffers across
// sizes; every response must still match the locally computed product (a
// stale or mis-sliced pooled vector would show up immediately).
func TestSpMVPooledBuffersInterleavedSizes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	specs := []GenerateSpec{
		{Family: "banded", Size: 700, Degree: 5, Seed: 1},
		{Family: "random", Size: 300, Degree: 4, Seed: 2},
	}
	type mat struct {
		info  MatrixInfo
		local *sparse.CSR
	}
	var ms []mat
	for _, sp := range specs {
		info := register(t, ts.URL, RegisterRequest{Name: sp.Family, Generate: &sp})
		local, _, err := Materialize(RegisterRequest{Name: sp.Family, Generate: &sp}, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, mat{info, local})
	}
	for round := 0; round < 3; round++ {
		for _, m := range ms {
			x := make([]float64, m.info.Cols)
			for i := range x {
				x[i] = float64((i+round)%5) - 2
			}
			var sr PanelResponse
			code, body := call(t, "POST", ts.URL+"/v1/matrices/"+m.info.ID+"/spmv",
				PanelRequest{X: [][]float64{x}}, &sr)
			if code != http.StatusOK {
				t.Fatalf("spmv: status %d body %s", code, body)
			}
			want := make([]float64, m.info.Rows)
			m.local.SpMV(want, x)
			for i := range want {
				if math.Abs(sr.Y[0][i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("round %d %s: y[%d] = %g, want %g", round, m.info.Name, i, sr.Y[0][i], want[i])
				}
			}
		}
	}
}
