package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Envelope is the request plumbing ocsd and ocsrouter share: the
// observability wrapper around every /v1 handler plus the JSON
// decode/reply/error conventions, so both tiers answer with the same bodies,
// log the same lines and score requests the same way. The tracer's service
// name ("ocsd", "ocsrouter") prefixes the request spans.
type Envelope struct {
	Log    *slog.Logger
	Tracer *obs.Tracer
	SLOs   []obs.Objective // read-only once built: Track reads it without a lock
	Slow   *obs.SlowTraces
	// Requests counts requests routed to a tracked handler, Errors those
	// answered with a 4xx/5xx status (the tier's own metrics counters).
	Requests, Errors *atomic.Int64
}

// maxBodyBytes bounds a request body on both tiers.
const maxBodyBytes = 64 << 20

// traceWriter decorates the response writer with the request-scoped logger
// (carrying trace_id) and the final status code, so Fail logs correlated
// lines and Track can check the request against its objective.
type traceWriter struct {
	http.ResponseWriter
	status int
	log    *slog.Logger
}

func (tw *traceWriter) WriteHeader(code int) {
	if tw.status == 0 {
		tw.status = code
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *traceWriter) Write(b []byte) (int, error) {
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.ResponseWriter.Write(b)
}

// ReqLog returns the request-scoped logger when w was wrapped by Track (it
// carries the request's trace_id), the base logger otherwise.
func (e *Envelope) ReqLog(w http.ResponseWriter) *slog.Logger {
	if tw, ok := w.(*traceWriter); ok {
		return tw.log
	}
	return e.Log
}

// Track wraps a handler with the observability envelope: a request span is
// opened under the OCS-Trace header's parent (or a fresh trace), the new
// context is echoed back on the response and threaded through the request
// context (the router's shard round trips parent their rpc.* spans under
// it), the body is capped at maxBodyBytes, and a request that fails or
// outlasts its endpoint's objective is logged at Warn with its span
// breakdown.
func (e *Envelope) Track(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.Requests.Add(1)
		parent, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sp := e.Tracer.StartSpan(e.Tracer.Service()+"."+endpoint, parent)
		sp.SetAttr("path", r.URL.Path)
		sc := sp.Context()
		w.Header().Set(obs.TraceHeader, sc.Header())
		tw := &traceWriter{ResponseWriter: w, log: e.Log.With("trace_id", sc.Trace.String())}
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sc))
		r.Body = http.MaxBytesReader(tw, r.Body, maxBodyBytes)
		h(tw, r)
		if tw.status == 0 {
			tw.status = http.StatusOK
		}
		sp.SetAttr("status", strconv.Itoa(tw.status))
		secs := sp.End()
		e.Slow.Offer(obs.SlowTrace{Trace: sc.Trace, Endpoint: endpoint, Seconds: secs, Start: sp.StartTime()})
		if target, ok := e.latencyTarget(endpoint); ok && (tw.status >= 500 || secs > target) {
			spans := e.Tracer.Spans(sc.Trace)
			parts := make([]string, 0, len(spans))
			for _, s := range spans {
				parts = append(parts, fmt.Sprintf("%s=%.6fs", s.Name, s.Seconds))
			}
			tw.log.Warn("request breached SLO",
				"endpoint", endpoint, "status", tw.status,
				"seconds", secs, "target_seconds", target,
				"spans", strings.Join(parts, " "))
		}
	})
}

// latencyTarget looks up the endpoint's objective; the first entry for an
// endpoint wins.
func (e *Envelope) latencyTarget(endpoint string) (float64, bool) {
	for _, o := range e.SLOs {
		if o.Endpoint == endpoint {
			return o.LatencyTarget, true
		}
	}
	return 0, false
}

// RecordSpan stores one completed child span under the request span sc (from
// obs.SpanFromContext). It is a no-op for untraced requests (zero trace
// context) — Tracer.Record drops zero-trace spans.
func (e *Envelope) RecordSpan(sc obs.SpanContext, name string, start time.Time, secs float64, attrs ...[2]string) {
	sp := obs.Span{
		Trace:   sc.Trace,
		ID:      obs.NewSpanID(),
		Parent:  sc.Span,
		Name:    name,
		Start:   start,
		Seconds: secs,
	}
	if len(attrs) > 0 {
		sp.Attrs = make(map[string]string, len(attrs))
		for _, kv := range attrs {
			sp.Attrs[kv[0]] = kv[1]
		}
	}
	e.Tracer.Record(sp)
}

// WireSpan records one wire.* child span (decode, encode, scan, splice) that
// started at start and ends now, with the size of what it handled.
func (e *Envelope) WireSpan(sc obs.SpanContext, name string, start time.Time, size, vectors int) {
	e.RecordSpan(sc, name, start, time.Since(start).Seconds(),
		[2]string{"bytes", strconv.Itoa(size)}, [2]string{"vectors", strconv.Itoa(vectors)})
}

// WriteBody replies with an already encoded JSON body. Every reply is
// encoded before its header goes out, so a value that cannot be encoded is
// an error status, never a success status with an empty body.
func (e *Envelope) WriteBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a client that hung up is not this handler's error
}

// WriteJSON replies with v as the JSON body. A value JSON cannot carry (a
// NaN or ±Inf in a solution vector) is 422: the request was computed, its
// result cannot be represented.
func (e *Envelope) WriteJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status := http.StatusInternalServerError
		if errors.As(err, new(*json.UnsupportedValueError)) {
			status = http.StatusUnprocessableEntity
		}
		e.Fail(w, status, "encoding response: %v", err)
		return
	}
	e.WriteBody(w, code, buf.Bytes())
}

// Fail replies with the uniform error body and counts the request as failed.
func (e *Envelope) Fail(w http.ResponseWriter, code int, format string, args ...any) {
	e.Errors.Add(1)
	msg := fmt.Sprintf(format, args...)
	if code >= 500 {
		e.ReqLog(w).Warn("request failed", "status", code, "error", msg)
	} else {
		e.ReqLog(w).Debug("request rejected", "status", code, "error", msg)
	}
	e.WriteJSON(w, code, errorResponse{Error: msg})
}

// Decode parses the JSON request body into v (unknown fields are rejected),
// answering itself on failure: 413 for a body past maxBodyBytes, else 400.
func (e *Envelope) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		e.failBody(w, err)
		return false
	}
	return true
}

// failBody answers a request whose body could not be read or parsed: 413
// when the body ran past maxBodyBytes, 400 for anything else.
func (e *Envelope) failBody(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	e.Fail(w, code, "decoding request body: %v", err)
}

// ReadPanel reads a /spmv or /spmm request into a pooled buffer (hand it back
// with wire.PutBuf), scans it and checks its shape against a matrix of cols
// columns — at least one vector, each of cols entries; k is how many. No
// float is converted. It answers itself on failure, like Decode, with the
// same statuses and messages on both tiers.
func (e *Envelope) ReadPanel(w http.ResponseWriter, r *http.Request, cols int) (body *[]byte, lay wire.Layout, k int, ok bool) {
	body, err := wire.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		e.failBody(w, err)
		return nil, lay, 0, false
	}
	if lay, err = wire.ScanRequest(*body); err != nil {
		err = fmt.Errorf("decoding request body: %w", err)
	} else if k = len(lay.Vectors); k == 0 {
		err = errors.New("x must hold at least one vector")
	}
	for i, x := range lay.Vectors {
		if err == nil && x.N != cols {
			err = fmt.Errorf("x[%d] has length %d, matrix has %d columns", i, x.N, cols)
		}
	}
	if err != nil {
		wire.PutBuf(body)
		e.Fail(w, http.StatusBadRequest, "%v", err)
		return nil, lay, 0, false
	}
	return body, lay, k, true
}

// badRequest is a work error caused by the client's malformed input (400)
// rather than by a computation that could not be carried out (422).
type badRequest string

func (e badRequest) Error() string { return string(e) }

// WorkStatus maps a pool/solver error to the HTTP status both tiers answer
// it with, keyed on error identity: shed load is 503, an expired or canceled
// request 504, malformed input 400, and anything else — an unknown app, a
// solver breakdown, a matrix the app cannot run on — 422: the request was
// understood but cannot be computed, which is not a server fault.
func WorkStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}
