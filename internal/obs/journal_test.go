package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestJournalAppendGet(t *testing.T) {
	j := NewJournal(4)
	id1 := j.Append(DecisionTrace{Label: "a"})
	id2 := j.Append(DecisionTrace{Label: "b"})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", id1, id2)
	}
	if j.Len() != 2 {
		t.Errorf("len %d, want 2", j.Len())
	}
	tr, ok := j.Get(id1)
	if !ok || tr.Label != "a" || tr.ID != id1 {
		t.Errorf("Get(%d) = %+v, %v", id1, tr, ok)
	}
	if _, ok := j.Get(0); ok {
		t.Error("ID 0 resolved")
	}
	if _, ok := j.Get(99); ok {
		t.Error("future ID resolved")
	}
}

func TestJournalEviction(t *testing.T) {
	j := NewJournal(3)
	for i := 1; i <= 5; i++ {
		j.Append(DecisionTrace{Iterations: i})
	}
	if j.Len() != 3 {
		t.Fatalf("len = %d, want 3", j.Len())
	}
	for id := uint64(1); id <= 2; id++ {
		if _, ok := j.Get(id); ok {
			t.Errorf("evicted ID %d still resolves", id)
		}
	}
	for id := uint64(3); id <= 5; id++ {
		tr, ok := j.Get(id)
		if !ok || tr.Iterations != int(id) {
			t.Errorf("Get(%d) = %+v, %v", id, tr, ok)
		}
	}
	// Recent: newest first, bounded by n, n<=0 means all.
	recent := j.Recent(2)
	if len(recent) != 2 || recent[0].ID != 5 || recent[1].ID != 4 {
		t.Errorf("Recent(2) = %+v", recent)
	}
	all := j.Recent(0)
	if len(all) != 3 || all[0].ID != 5 || all[2].ID != 3 {
		t.Errorf("Recent(0) = %+v", all)
	}
}

func TestJournalUpdate(t *testing.T) {
	j := NewJournal(2)
	id := j.Append(DecisionTrace{})
	ok := j.Update(id, func(tr *DecisionTrace) { tr.Ledger.RecordPost(0.5) })
	if !ok {
		t.Fatal("update of a live trace refused")
	}
	tr, _ := j.Get(id)
	if tr.Ledger.PostSpMVCalls != 1 || tr.Ledger.PostSpMVSeconds != 0.5 {
		t.Errorf("update not visible: %+v", tr.Ledger)
	}
	j.Append(DecisionTrace{})
	j.Append(DecisionTrace{}) // evicts id
	if j.Update(id, func(*DecisionTrace) {}) {
		t.Error("update of an evicted trace succeeded")
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := j.Append(DecisionTrace{})
				j.Update(id, func(tr *DecisionTrace) { tr.Ledger.RecordPost(1e-3) })
				j.Get(id)
				j.Recent(4)
			}
		}()
	}
	wg.Wait()
	if next := j.Append(DecisionTrace{}); next != 801 || j.Len() != 8 {
		t.Errorf("next ID %d len %d, want 801 / 8", next, j.Len())
	}
}

func TestLedgerInitPredictionsConverted(t *testing.T) {
	var l Ledger
	// baseline 1ms, model promises 0.4x per-call time, overhead 3ms.
	l.InitPredictions(0.001, 0.4, 0.003, 0, true)
	if l.PredictedSpMVSeconds != 0.0004 {
		t.Errorf("predicted per-call %g, want 0.0004", l.PredictedSpMVSeconds)
	}
	if l.PredictedSpeedup != 2.5 {
		t.Errorf("predicted speedup %g, want 2.5", l.PredictedSpeedup)
	}
	// Each call saves 0.6ms; 3ms/0.6ms = 5 calls to break even.
	if l.PredictedBreakEvenCalls != 5 {
		t.Errorf("break-even %d, want 5", l.PredictedBreakEvenCalls)
	}
	if l.NetSeconds != -0.003 || l.RegretSeconds != 0.003 || l.BrokeEven {
		t.Errorf("fresh ledger net %g regret %g brokeEven %v", l.NetSeconds, l.RegretSeconds, l.BrokeEven)
	}
}

func TestLedgerInitPredictionsDegenerate(t *testing.T) {
	var stay Ledger
	stay.InitPredictions(0.001, 1, 0.002, 0, false)
	if stay.PredictedBreakEvenCalls != 0 {
		t.Errorf("stay break-even %d, want 0", stay.PredictedBreakEvenCalls)
	}
	var worse Ledger
	worse.InitPredictions(0.001, 1.5, 0.002, 0, true)
	if worse.PredictedBreakEvenCalls != -1 {
		t.Errorf("slower-format break-even %d, want -1", worse.PredictedBreakEvenCalls)
	}
}

// TestLedgerRecordPost walks the ledger through the break-even crossing and
// checks every derived field at each step — this is the online T_affected
// identity in miniature.
func TestLedgerRecordPost(t *testing.T) {
	var l Ledger
	l.InitPredictions(0.001, 0.5, 0.001, 0, true) // saves 0.5ms/call, 2 calls to repay 1ms

	l.RecordPost(0.0005)
	if l.PostSpMVCalls != 1 || l.RealizedSpMVSeconds != 0.0005 || l.RealizedSpeedup != 2 {
		t.Fatalf("after call 1: %+v", l)
	}
	if l.SavedSeconds != 0.0005 || l.NetSeconds != -0.0005 || l.BrokeEven || l.RegretSeconds != 0.0005 {
		t.Errorf("after call 1: saved %g net %g brokeEven %v regret %g",
			l.SavedSeconds, l.NetSeconds, l.BrokeEven, l.RegretSeconds)
	}

	l.RecordPost(0.0005)
	if !l.BrokeEven || l.NetSeconds != 0 || l.RegretSeconds != 0 {
		t.Errorf("at exact break-even: net %g brokeEven %v regret %g", l.NetSeconds, l.BrokeEven, l.RegretSeconds)
	}

	l.RecordPost(0.0005)
	if math.Abs(l.NetSeconds-0.0005) > 1e-15 || !l.BrokeEven || l.RegretSeconds != 0 {
		t.Errorf("past break-even: net %g brokeEven %v regret %g", l.NetSeconds, l.BrokeEven, l.RegretSeconds)
	}

	// A slower-than-baseline format shows negative saving and real regret.
	var bad Ledger
	bad.InitPredictions(0.001, 0.5, 0.001, 0, true)
	bad.RecordPost(0.002)
	if bad.SavedSeconds != -0.001 || bad.NetSeconds != -0.002 || bad.RegretSeconds != 0.002 || bad.BrokeEven {
		t.Errorf("regressing format: %+v", bad)
	}
}

func TestTraceRender(t *testing.T) {
	tr := DecisionTrace{
		ID:             3,
		Label:          "bench",
		Iterations:     15,
		PredictedTotal: 120,
		Gates: []GateCheck{
			{Name: "remaining>=TH", LHS: 105, RHS: 15, Passed: true},
			{Name: "remaining>=gate*overhead", LHS: 105, RHS: 10, Passed: true},
		},
		Stage2Ran:                 true,
		PredictedCostByFormat:     map[string]float64{"CSR": 105, "DIA": 60},
		PredictedSpMVNormByFormat: map[string]float64{"CSR": 1, "DIA": 0.5},
		PredictedConvNormByFormat: map[string]float64{"CSR": 0, "DIA": 7.5},
		Chosen:                    "DIA",
		Converted:                 true,
	}
	tr.Ledger.InitPredictions(0.001, 0.5, 0.004, 0, true)
	out := tr.Render()
	for _, want := range []string{
		"decision #3 [bench] at iteration 15",
		"predicted 120 total iterations",
		"remaining>=TH",
		"pass",
		"* DIA",
		"chosen DIA converted=true",
		"ledger:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	short := DecisionTrace{ID: 1, Gates: []GateCheck{{Name: "remaining>=TH", LHS: 3, RHS: 15}}}
	if out := short.Render(); !strings.Contains(out, "BLOCK") || !strings.Contains(out, "stage2: not run") {
		t.Errorf("blocked render:\n%s", out)
	}
}

// TestJournalUpdateEvictedNoOp pins the ledger's write path against
// eviction: the selector may stream a ledger update for a trace the ring
// just evicted (the handle outlives its journal slot). That Update must be a clean
// no-op — the callback must never run, the evicted trace must not be
// resurrected, and the slot's new occupant must be untouched even though
// it reuses the evictee's ring position.
func TestJournalUpdateEvictedNoOp(t *testing.T) {
	j := NewJournal(2)
	old := j.Append(DecisionTrace{Label: "victim"})
	j.Append(DecisionTrace{Label: "b"})
	heir := j.Append(DecisionTrace{Label: "heir"}) // reuses victim's slot

	called := false
	if j.Update(old, func(tr *DecisionTrace) {
		called = true
		tr.Label = "resurrected"
		tr.Ledger.RecordPost(1)
	}) {
		t.Error("Update of an evicted ID reported success")
	}
	if called {
		t.Fatal("Update callback ran against an evicted ID")
	}
	if _, ok := j.Get(old); ok {
		t.Error("evicted trace resurrected")
	}
	tr, ok := j.Get(heir)
	if !ok || tr.Label != "heir" || tr.Ledger.PostSpMVCalls != 0 {
		t.Fatalf("slot heir corrupted by the stale update: %+v, %v", tr, ok)
	}
	if newest := j.Recent(1)[0].ID; j.Len() != 2 || newest != heir {
		t.Errorf("len %d newest ID %d after no-op, want 2 / %d", j.Len(), newest, heir)
	}
}

// TestJournalUpdateEvictionRace hammers Updates against IDs that concurrent
// Appends are evicting out from under them. Run under -race this pins the
// locate-under-lock contract: a stale Update either lands on its own trace
// or nowhere — never on the ID that inherited the ring slot. Each trace
// carries its ID in Iterations so cross-contamination is detectable.
func TestJournalUpdateEvictionRace(t *testing.T) {
	j := NewJournal(4)
	var wg sync.WaitGroup
	var ids [2][]uint64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := j.Append(DecisionTrace{})
				j.Update(id, func(tr *DecisionTrace) { tr.Iterations = int(tr.ID) })
				ids[g] = append(ids[g], id)
				// Also fire updates at IDs several evictions old.
				if i >= 8 {
					stale := ids[g][i-8]
					j.Update(stale, func(tr *DecisionTrace) { tr.Iterations = -1 })
				}
			}
		}(g)
	}
	wg.Wait()
	if last := max(ids[0][len(ids[0])-1], ids[1][len(ids[1])-1]); last != 1000 {
		t.Fatalf("last ID = %d, want 1000", last)
	}
	// Whatever survives must self-identify: Iterations == own ID, or the
	// stale marker only if that exact ID was old enough to be re-targeted
	// (it was not: stale IDs are at least 8 appends old with capacity 4, so
	// they were always evicted before the second update could land).
	for _, tr := range j.Recent(0) {
		if tr.Iterations != int(tr.ID) {
			t.Errorf("trace %d carries foreign payload %d", tr.ID, tr.Iterations)
		}
	}
}
