package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/timing"
)

// TestRecordOutlivesItsJournalEntry: the journal is a ring of snapshots, the
// record is the handle's. With room for one entry, a second handle's decision
// evicts the first's, and the first handle still answers /v1/trace with its
// ledger growing over later products.
func TestRecordOutlivesItsJournalEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{Preds: core.NewPredictors(), Clock: gateClock()})
	s.journal = obs.NewJournal(1)
	first := driveSolve(t, ts.URL)
	driveSolve(t, ts.URL)

	var info MatrixInfo
	if code, body := call(t, "GET", ts.URL+"/v1/matrices/"+first.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("get: status %d body %s", code, body)
	}
	if info.TraceID == 0 {
		t.Fatal("the first handle's decision was never journaled")
	}
	if _, held := s.journal.Get(info.TraceID); held || s.journal.Len() != 1 {
		t.Fatalf("journal of one still holds entry %d (len %d): the test evicted nothing", info.TraceID, s.journal.Len())
	}

	trace := func() obs.DecisionTrace {
		t.Helper()
		var tr obs.DecisionTrace
		if code, body := call(t, "GET", ts.URL+"/v1/trace/"+first.ID, nil, &tr); code != http.StatusOK {
			t.Fatalf("trace of an evicted entry: status %d body %s", code, body)
		}
		return tr
	}
	before := trace()
	if before.ID != info.TraceID || before.Label != "poisson" || !before.Stage2Ran {
		t.Fatalf("trace = id %d label %q stage2 %v, want id %d label poisson stage2 true",
			before.ID, before.Label, before.Stage2Ran, info.TraceID)
	}
	x := make([]float64, first.Cols)
	for i := 0; i < 2; i++ {
		if code, body := call(t, "POST", ts.URL+"/v1/matrices/"+first.ID+"/spmv", PanelRequest{X: [][]float64{x}}, nil); code != http.StatusOK {
			t.Fatalf("spmv: status %d body %s", code, body)
		}
	}
	if after := trace(); after.Ledger.PostSpMVCalls != before.Ledger.PostSpMVCalls+2 {
		t.Errorf("post_spmv_calls %d -> %d over two products, want +2",
			before.Ledger.PostSpMVCalls, after.Ledger.PostSpMVCalls)
	}
}

// TestFoldRunsOnFailure: a solve whose progress fires the pipeline and which
// then runs into its deadline (504) still folds the record: its decision is
// journaled, and the selector spans sit under that request's span, the
// conversion span carrying the record's paid seconds.
func TestFoldRunsOnFailure(t *testing.T) {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(250 * time.Millisecond)
	s, ts := newTestServer(t, Config{Preds: constBundle(t, 0.05, 0), Clock: clk})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "deadline",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
	})

	blob, _ := json.Marshal(SolveRequest{App: "jacobi", Tol: 1e-300, MaxIters: 100_000_000, TimeoutMillis: 500})
	resp, err := http.Post(ts.URL+"/v1/matrices/"+info.ID+"/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("solve: status %d, want 504", resp.StatusCode)
	}
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatal("the 504 carries no trace header")
	}

	entries := s.journal.Recent(0)
	if len(entries) != 1 || entries[0].Label != "deadline" || !entries[0].Converted {
		t.Fatalf("journal = %+v, want the one converting decision of %q", entries, "deadline")
	}
	rec := entries[0]

	var spans SpansResponse
	if code, body := call(t, "GET", ts.URL+"/v1/spans/"+sc.Trace.String(), nil, &spans); code != http.StatusOK {
		t.Fatalf("spans: status %d body %s", code, body)
	}
	var request obs.Span
	selector := map[string]obs.Span{}
	for _, sp := range spans.Spans {
		switch {
		case sp.Name == "ocsd.solve":
			request = sp
		case sp.Service == "selector":
			selector[sp.Name] = sp
		}
	}
	if request.ID == 0 {
		t.Fatalf("no ocsd.solve span among %v", spanNames(spans.Spans))
	}
	for _, st := range rec.Stages {
		sp, ok := selector[st.Name]
		if !ok {
			t.Errorf("stage %s has no span (have %v)", st.Name, spanNames(spans.Spans))
			continue
		}
		if sp.Parent != request.ID || sp.Seconds != st.Seconds || sp.Attrs["decision_id"] != strconv.FormatUint(rec.ID, 10) {
			t.Errorf("%s span: parent %v seconds %g decision %q, want %v, %g, %d",
				st.Name, sp.Parent, sp.Seconds, sp.Attrs["decision_id"], request.ID, st.Seconds, rec.ID)
		}
	}
	for _, want := range []string{"selector.stage1", "selector.features", "selector.decide", "selector.convert"} {
		if _, ok := selector[want]; !ok {
			t.Errorf("span %s missing", want)
		}
	}
	convert := selector["selector.convert"]
	if got, err := strconv.ParseFloat(convert.Attrs["paid_seconds"], 64); err != nil || got != rec.PaidSeconds {
		t.Errorf("selector.convert paid_seconds = %q, want the record's %g", convert.Attrs["paid_seconds"], rec.PaidSeconds)
	}
	if convert.Attrs["format"] != "SELL" || convert.Attrs["label"] != "deadline" {
		t.Errorf("selector.convert attrs = %v", convert.Attrs)
	}
}
