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
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
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

// transportFailure reports whether the error means the shard process itself
// is unreachable (as opposed to an HTTP-level rejection like a full queue):
// only these flip the health bit immediately.
func transportFailure(err error) bool {
	var se *StatusError
	return err != nil && !errors.As(err, &se)
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

// do performs one JSON request against the shard. A non-2xx status decodes
// the shard's error body into a *StatusError.
func (c *ShardClient) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("cluster: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
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
		return err
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
		return &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
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

// Panel runs a batched (possibly partial-row) product on the shard: op
// "spmv" multiplies the vectors one at a time, "spmm" in one blocked pass.
func (c *ShardClient) Panel(ctx context.Context, op, id string, req server.PanelRequest) (server.PanelResponse, error) {
	var resp server.PanelResponse
	err := c.do(ctx, http.MethodPost, "/v1/matrices/"+url.PathEscape(id)+"/"+op, req, &resp)
	return resp, err
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
