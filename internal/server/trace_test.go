package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestTracePropagation: a request carrying an OCS-Trace header joins
// the caller's trace; the response echoes the context; the shard's span
// store serves the request's span tree including admission wait and kernel
// execution; and a request that breaches its SLO is Warn-logged with the
// trace ID and a span breakdown.
func TestRequestTracePropagation(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(logBuf, nil))})
	info := register(t, ts.URL, RegisterRequest{
		Name:     "traced",
		Generate: &GenerateSpec{Family: "stencil2d", Size: 3600},
	})

	// A solve that runs into its deadline answers 504, and a 5xx breaches
	// every objective, so the slow-request Warn path is deterministic.
	parent := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	blob, _ := json.Marshal(SolveRequest{App: "jacobi", Tol: 1e-300, MaxIters: 10_000_000, TimeoutMillis: 30})
	req, err := http.NewRequest("POST", ts.URL+"/v1/matrices/"+info.ID+"/solve", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, parent.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("solve status %d, want 504", resp.StatusCode)
	}

	echoed, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("response did not echo %s (got %q)", obs.TraceHeader, resp.Header.Get(obs.TraceHeader))
	}
	if echoed.Trace != parent.Trace {
		t.Fatalf("echoed trace %v, want caller's %v", echoed.Trace, parent.Trace)
	}
	if echoed.Span == parent.Span {
		t.Error("echoed span is the caller's parent, want the new request span")
	}

	var spans SpansResponse
	code, body := call(t, "GET", ts.URL+"/v1/spans/"+parent.Trace.String(), nil, &spans)
	if code != http.StatusOK {
		t.Fatalf("spans: status %d body %s", code, body)
	}
	byName := map[string]obs.Span{}
	for _, sp := range spans.Spans {
		byName[sp.Name] = sp
	}
	for _, want := range []string{"ocsd.solve", "queue.wait", "solve.compute"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("span %q missing (have %v)", want, spanNames(spans.Spans))
		}
	}
	if root := byName["ocsd.solve"]; root.Parent != parent.Span {
		t.Errorf("request span parent %v, want caller's span %v", root.Parent, parent.Span)
	}
	if k := byName["solve.compute"]; k.Parent != byName["ocsd.solve"].ID {
		t.Errorf("kernel span parent %v, want request span %v", k.Parent, byName["ocsd.solve"].ID)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "trace_id="+parent.Trace.String()) {
		t.Errorf("logs lack trace_id correlation:\n%s", logs)
	}
	if !strings.Contains(logs, "request breached SLO") || !strings.Contains(logs, "solve.compute=") {
		t.Errorf("slow-request Warn with span breakdown missing:\n%s", logs)
	}

	var slow SlowResponse
	if code, body := call(t, "GET", ts.URL+"/debug/slow", nil, &slow); code != http.StatusOK {
		t.Fatalf("debug/slow: status %d body %s", code, body)
	}
	found := false
	for _, st := range slow.Slowest {
		if st.Trace == parent.Trace && st.Endpoint == "solve" {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/slow does not list the traced request: %+v", slow.Slowest)
	}
}

func quietTestLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func spanNames(spans []obs.Span) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestRequestTraceMinted: a headerless request gets a fresh trace, and its
// spans are queryable under the minted ID.
func TestRequestTraceMinted(t *testing.T) {
	_, ts := newTestServer(t, Config{Logger: quietTestLogger()})
	resp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sc, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok || sc.Trace.IsZero() {
		t.Fatalf("no minted trace in response header %q", resp.Header.Get(obs.TraceHeader))
	}
	var spans SpansResponse
	if code, body := call(t, "GET", ts.URL+"/v1/spans/"+sc.Trace.String(), nil, &spans); code != http.StatusOK {
		t.Fatalf("spans: status %d body %s", code, body)
	}
	if spans.Count != 1 || spans.Spans[0].Name != "ocsd.list" {
		t.Errorf("minted trace spans = %+v, want single ocsd.list", spans.Spans)
	}
	if spans.Spans[0].Parent != 0 {
		t.Error("minted request span should be a root")
	}
}
