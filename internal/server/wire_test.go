package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// postRaw posts body as is and returns the status, the raw reply and its
// headers.
func postRaw(t *testing.T, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply, resp.Header
}

// TestPanelReplyIsEncodingJSONText pins the wire contract of the hand-written
// codec: whatever /spmv and /spmm answer is, byte for byte, what
// json.Encoder prints for the PanelResponse the reply decodes to — so every
// client (and the parent commit's golden bytes) sees no difference.
func TestPanelReplyIsEncodingJSONText(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{Generate: &GenerateSpec{Family: "random", Size: 300, Degree: 6, Seed: 5}})
	xs := make([][]float64, 3)
	for i := range xs {
		xs[i] = make([]float64, info.Cols)
		for j := range xs[i] {
			xs[i][j] = math.Sin(float64(i*1000+j)) * math.Pow(10, float64(j%40-20))
		}
	}
	for _, op := range []string{"/spmv", "/spmm"} {
		for _, req := range []PanelRequest{{X: xs}, {X: xs[:1]}} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			code, reply, hdr := postRaw(t, ts.URL+"/v1/matrices/"+info.ID+op, body)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", op, code, reply)
			}
			if n, _ := strconv.Atoi(hdr.Get("Content-Length")); n != len(reply) {
				t.Errorf("%s: Content-Length %q for a %d-byte reply", op, hdr.Get("Content-Length"), len(reply))
			}
			var resp PanelResponse
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if len(resp.Y) != len(req.X) || len(resp.Y[0]) != info.Rows {
				t.Fatalf("%s: %d vectors of %d rows, want %d of %d", op, len(resp.Y), len(resp.Y[0]), len(req.X), info.Rows)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply, want.Bytes()) {
				t.Errorf("%s: reply is not encoding/json's text for the same response", op)
			}
		}
	}
}

// TestNonFiniteProductIs422 is the regression for the silent empty 200: a
// product that overflows cannot be printed as JSON, and used to be answered
// with a success status and no body.
func TestNonFiniteProductIs422(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{Generate: &GenerateSpec{Family: "stencil2d", Size: 16}})
	x := make([]float64, info.Cols)
	for i := range x {
		x[i] = 1e308
	}
	for _, op := range []string{"/spmv", "/spmm"} {
		var e errorResponse
		code, body := call(t, "POST", ts.URL+"/v1/matrices/"+info.ID+op, PanelRequest{X: [][]float64{x}}, &e)
		if code != http.StatusUnprocessableEntity || !strings.HasPrefix(e.Error, "product is not finite (y[0][") {
			t.Errorf("%s: status %d body %q, want 422 product is not finite (y[0][i])", op, code, body)
		}
	}
	if got := s.Metrics().RequestErrors.Load(); got != 2 {
		t.Errorf("request errors = %d, want 2", got)
	}
}

// TestWriteJSONNeverAnswersAnEmptySuccess: a value encoding/json refuses is
// an error reply with a body, whatever status the handler asked for.
func TestWriteJSONNeverAnswersAnEmptySuccess(t *testing.T) {
	s := New(Config{})
	for _, v := range []any{
		SolveResponse{App: "cg", Residual: math.NaN()},
		SolveResponse{App: "cg", X: []float64{1, math.Inf(1)}},
	} {
		rec := httptest.NewRecorder()
		s.env.WriteJSON(rec, http.StatusOK, v)
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("reply body %q, want the uniform error document", rec.Body)
		}
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("status %d, want 422", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.env.WriteJSON(rec, http.StatusCreated, SolveResponse{App: "cg"})
	if rec.Code != http.StatusCreated || rec.Body.Len() == 0 || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("plain reply: status %d, %d bytes, Content-Length %q", rec.Code, rec.Body.Len(), rec.Header().Get("Content-Length"))
	}
}

// TestPanelWireSpans: the request span's children split a panel request into
// decode → queue → compute → encode, the per-layer budget's rows.
func TestPanelWireSpans(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := register(t, ts.URL, RegisterRequest{Generate: &GenerateSpec{Family: "banded", Size: 200, Degree: 3, Seed: 1}})
	x := make([]float64, info.Cols)
	body, _ := json.Marshal(PanelRequest{X: [][]float64{x, x}})
	for op, compute := range map[string]string{"spmv": "spmv.compute", "spmm": "spmm.compute"} {
		code, reply, hdr := postRaw(t, ts.URL+"/v1/matrices/"+info.ID+"/"+op, body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", op, code, reply)
		}
		sc, ok := obs.ParseTraceHeader(hdr.Get(obs.TraceHeader))
		if !ok {
			t.Fatalf("%s: no trace header", op)
		}
		byName := map[string]obs.Span{}
		for _, sp := range s.env.Tracer.Spans(sc.Trace) {
			byName[sp.Name] = sp
		}
		order := []string{"wire.decode", "queue.wait", compute, "wire.encode"}
		for i, name := range order {
			sp, ok := byName[name]
			if !ok {
				t.Fatalf("%s: no %s span among %v", op, name, byName)
			}
			if sp.Parent != sc.Span {
				t.Errorf("%s: %s is not a child of the request span", op, name)
			}
			if i > 0 && sp.Start.Before(byName[order[i-1]].Start) {
				t.Errorf("%s: %s starts before %s", op, name, order[i-1])
			}
		}
		if got := byName["wire.decode"].Attrs; got["bytes"] != strconv.Itoa(len(body)) || got["vectors"] != "2" {
			t.Errorf("%s: wire.decode attrs %v, want bytes=%d vectors=2", op, got, len(body))
		}
		if got := byName["wire.encode"].Attrs; got["bytes"] != strconv.Itoa(len(reply)) || got["vectors"] != "2" {
			t.Errorf("%s: wire.encode attrs %v, want bytes=%d vectors=2", op, got, len(reply))
		}
	}
}
