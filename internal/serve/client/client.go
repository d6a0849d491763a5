// Package client is the Go client for the mtlbd daemon's job API:
// submit a job, follow its event stream, read its status. It is what
// mtlbexp -server uses, so the wire protocol has exactly one
// implementation on each side.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"shadowtlb/internal/serve"
)

// Client talks to one mtlbd daemon.
type Client struct {
	base string
	http *http.Client
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

// StatusError is a non-2xx daemon response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("mtlbd: HTTP %d: %s", e.Code, e.Message)
}

// do issues a request and decodes a 2xx JSON body into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
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
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError builds a StatusError from a non-2xx response, preferring
// the JSON error document's message.
func statusError(resp *http.Response) error {
	e := &StatusError{Code: resp.StatusCode}
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

// Submit enqueues a job and returns its id. A full admission queue
// surfaces as a 429 StatusError.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches a job's status document.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait follows the job's event stream until it reaches a terminal
// state, invoking onEvent (when non-nil) for each event, then returns
// the final status. It degrades to polling if the stream breaks.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(serve.Event)) (serve.JobStatus, error) {
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
