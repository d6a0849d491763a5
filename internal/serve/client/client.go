// Package client is the Go client for the mtlbd daemon's job API. It
// is what mtlbexp -server and mtlbload use, so the wire protocol has
// exactly one implementation on each side.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"shadowtlb/internal/obs"
	"shadowtlb/internal/serve"
)

// Client talks to one mtlbd daemon.
type Client struct {
	base   string
	http   *http.Client
	tracer *obs.Tracer // nil = tracing off
	// root, when valid, is the parent for submit spans and the context
	// propagated to the daemon as a traceparent header.
	root obs.SpanContext
	// onRequest, when set, observes every completed API request.
	onRequest func(RequestInfo)
	// retry, when MaxAttempts > 1, makes Submit back off and retry on
	// 429 instead of surfacing the rejection to the caller.
	retry RetryPolicy
}

// New returns a client for the daemon at base (e.g.
// "http://localhost:8047"). A nil httpClient uses a default with no
// overall timeout — job waits are bounded by contexts, and event
// streams are long-lived by design.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// SetTracer attaches a tracer: each Submit gets a client-side span and
// every submission carries a traceparent header, so the daemon's spans
// land in the same trace. parent, when valid, roots the client's spans
// (a CLI mints one root span for its whole invocation); a zero parent
// puts each submission in its own fresh trace.
func (c *Client) SetTracer(t *obs.Tracer, parent obs.SpanContext) {
	c.tracer = t
	c.root = parent
}

// SetTraceParent sets the trace context propagated on submissions from
// a W3C traceparent string, without attaching a client-side tracer —
// for callers that only relay an upstream trace. Malformed input clears
// the context.
func (c *Client) SetTraceParent(h string) {
	c.root, _ = obs.ParseTraceParent(h)
}

// RequestInfo describes one completed daemon API request, for latency
// accounting by load generators.
type RequestInfo struct {
	Method string
	Path   string // route shape, ids elided (e.g. "/v1/jobs/{id}")
	Status int    // HTTP status, 0 on transport error
	Dur    time.Duration
}

// OnRequest installs an observer invoked after every API request
// (streams excluded — they are long-lived by design). mtlbload uses it
// to build request-latency percentiles.
func (c *Client) OnRequest(fn func(RequestInfo)) { c.onRequest = fn }

// StatusError is a non-2xx daemon response.
type StatusError struct {
	Code int
	// RetryAfter echoes the Retry-After header on 429 responses,
	// 0 otherwise.
	RetryAfter time.Duration
	Message    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("mtlbd: HTTP %d: %s", e.Code, e.Message)
}

// do issues a request and decodes a 2xx JSON body into out. route is
// the path's shape with ids elided, reported to the OnRequest observer;
// hdr, when non-nil, adds headers (the submit path's traceparent).
func (c *Client) do(ctx context.Context, method, path, route string, hdr http.Header, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if c.onRequest != nil {
		info := RequestInfo{Method: method, Path: route, Dur: time.Since(start)}
		if err == nil {
			info.Status = resp.StatusCode
		}
		c.onRequest(info)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return statusError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError builds a StatusError from a non-2xx response, preferring
// the JSON error document's message.
func statusError(resp *http.Response) error {
	e := &StatusError{Code: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &doc) == nil && doc.Error != "" {
		e.Message = doc.Error
	} else {
		e.Message = strings.TrimSpace(string(raw))
	}
	return e
}

// RetryPolicy makes Submit honor the daemon's admission backpressure:
// on 429 the client waits and retries instead of handing every rejected
// submission back to the caller. The wait is the larger of the daemon's
// Retry-After hint and a capped exponential backoff, with jitter so a
// fleet of rejected clients does not re-arrive in lockstep — exactly the
// behavior every caller of Submit used to reimplement.
type RetryPolicy struct {
	// MaxAttempts bounds total submission attempts (first try included);
	// <= 1 disables retrying.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0 = 100ms). Attempt n
	// waits max(Retry-After, BaseDelay·2ⁿ⁻¹), capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps every wait, Retry-After included (0 = 5s) — a daemon
	// must not be able to park a client arbitrarily long.
	MaxDelay time.Duration
	// Jitter widens each wait by a uniform random fraction in
	// [0, Jitter] (0 = 0.2; negative disables). Deterministic tests set
	// it negative.
	Jitter float64
	// OnRetry, when set, observes each backoff: the attempt that was
	// rejected (1-based) and the wait before the next one. Load
	// generators count retries with it.
	OnRetry func(attempt int, delay time.Duration)
}

// DefaultRetry is a sensible production policy: up to 8 attempts,
// 100ms base doubling to a 5s cap, 20% jitter.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 8}
}

// SetRetry installs the submission retry policy. The zero policy
// (MaxAttempts <= 1) restores the default: 429s surface immediately.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

// delay computes the wait after a rejected attempt (1-based), from the
// daemon's Retry-After hint and the policy's capped exponential curve.
func (p RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxD := p.MaxDelay
	if maxD <= 0 {
		maxD = 5 * time.Second
	}
	d := base << (attempt - 1)
	if d < base { // shift overflow on absurd attempt counts
		d = maxD
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > maxD {
		d = maxD
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		d += time.Duration(rand.Float64() * jitter * float64(d))
	}
	return d
}

// Submit enqueues a job and returns its id, retrying rejected (429)
// submissions per the installed RetryPolicy. With a tracer attached the
// submission is wrapped in a client-side span and carries its context
// as a traceparent header, so the daemon parents the job's spans under
// this call.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (string, error) {
	id, err := c.submitOnce(ctx, spec)
	for attempt := 1; err != nil && attempt < c.retry.MaxAttempts; attempt++ {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
			return "", err
		}
		d := c.retry.delay(attempt, se.RetryAfter)
		if c.retry.OnRetry != nil {
			c.retry.OnRetry(attempt, d)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return "", ctx.Err()
		}
		id, err = c.submitOnce(ctx, spec)
	}
	return id, err
}

// submitOnce is one submission attempt.
func (c *Client) submitOnce(ctx context.Context, spec serve.JobSpec) (string, error) {
	span := c.tracer.StartSpan("submit", c.root)
	defer span.End()
	var hdr http.Header
	if sc := span.Context(); sc.Valid() {
		hdr = http.Header{"Traceparent": []string{sc.TraceParent()}}
	} else if c.root.Valid() {
		// Relay-only mode: no client tracer, but an upstream context to
		// propagate.
		hdr = http.Header{"Traceparent": []string{c.root.TraceParent()}}
	}
	var out struct {
		ID    string `json:"id"`
		Trace string `json:"trace"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", "/v1/jobs", hdr, spec, &out); err != nil {
		return "", err
	}
	span.SetAttr("job", out.ID)
	return out.ID, nil
}

// Status fetches a job's status document.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "/v1/jobs/{id}", nil, nil, &st)
	return st, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "/v1/jobs/{id}", nil, nil, nil)
}

// Experiments lists the daemon's experiment registry.
func (c *Client) Experiments(ctx context.Context) ([]serve.ExperimentInfo, error) {
	var out []serve.ExperimentInfo
	err := c.do(ctx, http.MethodGet, "/v1/experiments", "/v1/experiments", nil, nil, &out)
	return out, err
}

// Healthz reports process liveness (200 even while draining).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "/healthz", nil, nil, nil)
}

// Readyz reports whether the daemon is accepting new jobs; a draining
// daemon is alive but not ready.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", "/readyz", nil, nil, nil)
}

// Metrics fetches the daemon's metrics dump as raw JSON.
func (c *Client) Metrics(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/metrics", "/metrics", nil, nil, &out)
	return out, err
}

// Wait follows the job's event stream until it reaches a terminal
// state, invoking onEvent (when non-nil) for each event, then returns
// the final status. It degrades to polling if the stream breaks.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(serve.Event)) (serve.JobStatus, error) {
	span := c.tracer.StartSpan("wait", c.root)
	span.SetAttr("job", id)
	defer span.End()
	if err := c.stream(ctx, id, onEvent); err != nil {
		if ctx.Err() != nil {
			return serve.JobStatus{}, ctx.Err()
		}
		if err := c.poll(ctx, id); err != nil {
			return serve.JobStatus{}, err
		}
	}
	return c.Status(ctx, id)
}

// stream consumes GET /v1/jobs/{id}/events to EOF. The server closes
// the stream once the job is terminal, so plain EOF means done.
func (c *Client) stream(ctx context.Context, id string, onEvent func(serve.Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("decoding event stream: %w", err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
	}
	return sc.Err()
}

// poll falls back to status polling until the job is terminal.
func (c *Client) poll(ctx context.Context, id string) error {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Run submits a job and waits for its terminal status in one call.
func (c *Client) Run(ctx context.Context, spec serve.JobSpec, onEvent func(serve.Event)) (serve.JobStatus, error) {
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	return c.Wait(ctx, id, onEvent)
}
