package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

// TestGatesSequence pins the gate arithmetic on hand-computed inputs: the
// TH gate in iterations, the forecast scaled by calls per iteration, and
// the overhead gate's estimate over the mean SpMV time.
func TestGatesSequence(t *testing.T) {
	// TH 15, factor 5, 300 µs + 8 ns/nnz.
	// 100 forecast, 15 seen: 85 remaining iterations, 30 calls in 15 → 170
	// calls. Estimate 300e-6 + 8e-9·50 000 = 700 µs over 10 µs = 70 calls,
	// threshold 350: the overhead gate closes.
	in := core.GateInput{Total: 100, Iterations: 15, Calls: 30, SpMVSeconds: 10e-6, NNZ: 50000}
	calls, gates, run := core.Gates(in)
	if calls != 170 || run || len(gates) != 2 {
		t.Fatalf("calls %g run %v gates %+v, want 170, false, two gates", calls, run, gates)
	}
	if g := gates[0]; g.Name != "remaining>=TH" || g.LHS != 85 || g.RHS != 15 || !g.Passed {
		t.Errorf("TH gate %+v", g)
	}
	if g := gates[1]; g.Name != "remaining>=gate*overhead" || g.LHS != 170 || g.Passed ||
		g.RHS < 350-1e-9 || g.RHS > 350+1e-9 {
		t.Errorf("overhead gate %+v, want 170 against 350", g)
	}

	// Four times the SpMV time: threshold 87.5, the gate opens.
	in.SpMVSeconds = 40e-6
	if _, gates, run := core.Gates(in); !run || !gates[1].Passed {
		t.Errorf("40 µs SpMV: run %v gates %+v", run, gates)
	}

	// Unmeasured SpMV time: the overhead gate stays out of the record.
	in.SpMVSeconds = 0
	if _, gates, run := core.Gates(in); !run || len(gates) != 1 {
		t.Errorf("unmeasured: run %v gates %+v", run, gates)
	}

	// A loop too short for TH stops there.
	if _, gates, run := core.Gates(core.GateInput{Total: 20, Iterations: 15}); run || len(gates) != 1 || gates[0].Passed {
		t.Errorf("short loop: run %v gates %+v", run, gates)
	}

	// Nothing seen (a known loop bound as the forecast): the forecast is
	// the remaining calls as it stands.
	if calls, _, run := core.Gates(core.GateInput{Total: 50}); calls != 50 || !run {
		t.Errorf("nothing seen: calls %g run %v, want 50, true", calls, run)
	}
}

// TestCostChargesSunkCallsAndOverhead: a converted run pays its CSR calls,
// the overhead, the conversion and the rest at the new speed; a CSR or
// unpriced pick pays every call on CSR plus the overhead.
func TestCostChargesSunkCallsAndOverhead(t *testing.T) {
	conv := map[sparse.Format]float64{sparse.FmtELL: 50}
	spmv := map[sparse.Format]float64{sparse.FmtCSR: 1, sparse.FmtELL: 0.5}
	for _, tc := range []struct {
		f                   sparse.Format
		n, k, overhead, out float64
	}{
		{sparse.FmtELL, 1000, 15, 3, 15 + 3 + 50 + 985*0.5},
		{sparse.FmtELL, 300, 0, 0, 50 + 150},
		{sparse.FmtCSR, 1000, 15, 3, 1003},
		{sparse.FmtDIA, 1000, 15, 3, 1003}, // unpriced
	} {
		if got := core.Cost(conv, spmv, tc.f, tc.n, tc.k, tc.overhead); got != tc.out {
			t.Errorf("Cost(%v, n=%g, k=%g, overhead=%g) = %g, want %g", tc.f, tc.n, tc.k, tc.overhead, got, tc.out)
		}
	}
}
