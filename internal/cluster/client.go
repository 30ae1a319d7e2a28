package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// StatusError is a non-2xx shard response with its decoded error body.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.Code, e.Msg)
}

// Retryable reports whether an error is worth retrying on another replica:
// transport failures (connection refused, reset, timeout) and the gateway
// statuses a healthy-but-overloaded or draining shard emits. 4xx responses
// are the client's fault and retrying them elsewhere would return the same
// answer.
func Retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusBadGateway ||
			se.Code == http.StatusServiceUnavailable ||
			se.Code == http.StatusGatewayTimeout
	}
	// Everything else reaching here is a transport-level failure.
	return err != nil
}

// ReplyError is a 2xx shard response whose body is not the document the
// endpoint promises (cut short, malformed, wrong shape). The shard answered,
// so it is a bad gateway for this request, not an unreachable process.
type ReplyError struct {
	Err error
}

func (e *ReplyError) Error() string { return "malformed shard reply: " + e.Err.Error() }
func (e *ReplyError) Unwrap() error { return e.Err }

// transportFailure reports whether the error means the shard process itself
// is unreachable — the round trip or the body read failed — as opposed to an
// answer the router did not like (an HTTP-level rejection such as a full
// queue, a reply that does not parse): only these flip the health bit
// immediately.
func transportFailure(err error) bool {
	return err != nil && !errors.As(err, new(*StatusError)) && !errors.As(err, new(*ReplyError))
}

// ShardClient is the router's connection to one ocsd shard: a pooled HTTP
// client plus the health state the failover and probe logic maintain.
type ShardClient struct {
	name string // base URL, doubles as the ring identity
	base string
	hc   *http.Client

	healthy  atomic.Bool
	draining atomic.Bool
	// consecFails counts consecutive failed probes/requests; the health
	// loop backs its probe cadence off exponentially with it.
	consecFails atomic.Int64
	// lastProbe is the unix-nano time of the last health probe.
	lastProbe atomic.Int64
}

// NewShardClient builds a client for one shard base URL (scheme://host:port,
// no trailing slash). The transport pools connections per shard so a
// fan-out SpMV reuses sockets instead of re-dialing per partial product.
func NewShardClient(base string, timeout time.Duration) (*ShardClient, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: shard URL %q must be scheme://host[:port]", base)
	}
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &ShardClient{
		name: strings.TrimSuffix(base, "/"),
		base: strings.TrimSuffix(base, "/"),
		hc:   &http.Client{Transport: tr, Timeout: timeout},
	}
	c.healthy.Store(true) // optimistic until the first probe says otherwise
	return c, nil
}

// Name returns the shard's identity (its base URL).
func (c *ShardClient) Name() string { return c.name }

// Healthy reports whether the shard is currently believed reachable and not
// draining.
func (c *ShardClient) Healthy() bool { return c.healthy.Load() && !c.draining.Load() }

// Draining reports whether the shard has been administratively drained.
func (c *ShardClient) Draining() bool { return c.draining.Load() }

// SetDraining marks the shard drained: excluded from placement and serving
// even while still reachable (the rebalancer still exports handles off it).
func (c *ShardClient) SetDraining(v bool) { c.draining.Store(v) }

// markSuccess resets the failure streak and restores health.
func (c *ShardClient) markSuccess() {
	c.consecFails.Store(0)
	c.healthy.Store(true)
}

// markFailure records a failed request or probe; transport-level failures
// flip the health bit immediately so in-flight routing stops picking this
// shard without waiting for the next probe.
func (c *ShardClient) markFailure(transport bool) {
	c.consecFails.Add(1)
	if transport {
		c.healthy.Store(false)
	}
}

// ConsecutiveFailures returns the current failure streak.
func (c *ShardClient) ConsecutiveFailures() int64 { return c.consecFails.Load() }

// shouldProbe implements exponential probe backoff: a shard failing its
// last k probes is probed every interval<<min(k,5) instead of every
// interval, so a dead shard does not eat a probe slot per tick forever.
func (c *ShardClient) shouldProbe(now time.Time, interval time.Duration) bool {
	fails := c.consecFails.Load()
	if fails > 5 {
		fails = 5
	}
	wait := interval << uint(fails)
	return now.UnixNano()-c.lastProbe.Load() >= wait.Nanoseconds()
}

// Probe checks /healthz, updating the health state.
func (c *ShardClient) Probe(ctx context.Context) error {
	c.lastProbe.Store(time.Now().UnixNano())
	err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		c.markFailure(true) // a failed health check is disqualifying either way
		return err
	}
	c.markSuccess()
	return nil
}

// lentReader is a request body over a buffer the caller wants back. A
// RoundTripper may still be reading a body in another goroutine after the
// round trip has returned (the shard answered before it had read the
// request, the context was cancelled); what it promises is to Close every
// body it was given, and Close is when returned runs, once.
type lentReader struct {
	bytes.Reader
	returned func()
	once     sync.Once
}

func (r *lentReader) Close() error {
	r.once.Do(r.returned)
	return nil
}

// roundTrip is the one raw exchange with the shard: body (nil for none) goes
// out as is, and a 2xx reply comes back unparsed in a pooled buffer the
// caller hands to wire.PutBuf. A non-2xx status decodes the shard's error
// body into a *StatusError; any other error is a transport failure. However
// it ends, body is the caller's again when it returns — to overwrite, or to
// pool — because it returns only once the transport has let go of it.
func (c *ShardClient) roundTrip(ctx context.Context, method, path string, body []byte) (*[]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if body != nil {
		var lent sync.WaitGroup // bodies handed to the transport and not yet closed
		defer lent.Wait()
		lend := func() (io.ReadCloser, error) {
			lent.Add(1)
			r := &lentReader{returned: lent.Done}
			r.Reset(body)
			return r, nil
		}
		// The transport rewinds with GetBody to resend on a fresh connection
		// a request that a dead idle one never took.
		req.Body, _ = lend()
		req.ContentLength, req.GetBody = int64(len(body)), lend
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the trace context: the shard opens its request span under
	// whatever span the router put in ctx (the rpc.* span), so the
	// assembled tree reads router → rpc → shard without either side
	// knowing about the other's store.
	if sc, ok := obs.SpanFromContext(ctx); ok {
		req.Header.Set(obs.TraceHeader, sc.Header())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		msg := ""
		if data, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			if json.Unmarshal(data, &e) == nil && e.Error != "" {
				msg = e.Error
			} else {
				msg = strings.TrimSpace(string(data))
			}
		}
		return nil, &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	return wire.ReadBody(resp.Body, resp.ContentLength)
}

// do performs one JSON request against the shard: in (nil for none) is
// marshalled as the body, a 2xx reply is unmarshalled into out (nil to
// discard it).
func (c *ShardClient) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("cluster: encoding request: %w", err)
		}
	}
	reply, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer wire.PutBuf(reply)
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(*reply, out); err != nil {
		return &ReplyError{err}
	}
	return nil
}

// panelRaw runs a batched product on the shard over already encoded bytes:
// body is a panel request as the wire codec (or a client) wrote it, the
// reply comes back scanned but unconverted, in a pooled buffer.
func (c *ShardClient) panelRaw(ctx context.Context, op, id string, body []byte) (*[]byte, wire.Layout, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, "/v1/matrices/"+url.PathEscape(id)+"/"+op, body)
	if err != nil {
		return nil, wire.Layout{}, err
	}
	lay, err := wire.ScanReply(*reply)
	if err != nil {
		wire.PutBuf(reply)
		return nil, wire.Layout{}, &ReplyError{err}
	}
	return reply, lay, nil
}

// Register registers a matrix on the shard.
func (c *ShardClient) Register(ctx context.Context, req server.RegisterRequest) (server.MatrixInfo, error) {
	var info server.MatrixInfo
	err := c.do(ctx, http.MethodPost, "/v1/matrices", req, &info)
	return info, err
}

// Get fetches a handle's stats document.
func (c *ShardClient) Get(ctx context.Context, id string) (server.MatrixInfo, error) {
	var info server.MatrixInfo
	err := c.do(ctx, http.MethodGet, "/v1/matrices/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Export fetches everything needed to re-register the handle elsewhere.
func (c *ShardClient) Export(ctx context.Context, id string) (server.ExportResponse, error) {
	var exp server.ExportResponse
	err := c.do(ctx, http.MethodGet, "/v1/matrices/"+url.PathEscape(id)+"/export", nil, &exp)
	return exp, err
}

// Solve runs a solver on the shard.
func (c *ShardClient) Solve(ctx context.Context, id string, req server.SolveRequest) (server.SolveResponse, error) {
	var resp server.SolveResponse
	err := c.do(ctx, http.MethodPost, "/v1/matrices/"+url.PathEscape(id)+"/solve", req, &resp)
	return resp, err
}

// Spans fetches the shard's local spans for one trace ID (empty list when
// the shard never saw the trace).
func (c *ShardClient) Spans(ctx context.Context, trace string) (server.SpansResponse, error) {
	var resp server.SpansResponse
	err := c.do(ctx, http.MethodGet, "/v1/spans/"+url.PathEscape(trace), nil, &resp)
	return resp, err
}

// Delete unregisters a handle (404s are swallowed: the goal state "handle
// absent" is already true).
func (c *ShardClient) Delete(ctx context.Context, id string) error {
	err := c.do(ctx, http.MethodDelete, "/v1/matrices/"+url.PathEscape(id), nil, nil)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return nil
	}
	return err
}
