package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
)

// TraceHeader carries trace propagation between tiers: the value is
// "<32-hex trace id>-<16-hex parent span id>" (obs.Span.Header). The
// client attaches it to every POST when the request context carries a
// span; servers continue the trace with obs.ContinueSpan and echo the
// request's trace on the response so callers can look it up under
// /debug/traces/{id}.
const TraceHeader = "X-Swarm-Trace"

// Client is a typed client of the swarmd/swarmgate HTTP surface. Every
// failure it returns is (or wraps) an *Error, so callers can route on
// Code and Retryable uniformly: server-side failures carry the server's
// envelope, transport-level failures are synthesized as retryable
// CodeUnavailable.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"). hc nil means http.DefaultClient; per-request
// deadlines come from the caller's context.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Base returns the server URL the client speaks to.
func (c *Client) Base() string { return c.base }

// post issues a JSON POST and returns the response; non-2xx responses are
// decoded into an *Error.
func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if h := obs.SpanFromContext(ctx).Header(); h != "" {
		req.Header.Set(TraceHeader, h)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &Error{Code: CodeUnavailable, Message: err.Error(), Retryable: true}
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		eb, _ := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
		return nil, DecodeError(resp.StatusCode, bytes.TrimSpace(eb))
	}
	return resp, nil
}

// RunBody executes one configuration via POST /v1/run and returns the
// response body as the server wrote it. A body with a Content-Length is
// read into a buffer of exactly that size, one that ends short of it is a
// malformed answer from a reachable instance, and one declared over
// MaxRecordBytes is refused unread. A body without one is read under
// MaxRecordBytes, and refused without reading the rest once it passes the
// bound: a correct server never sends one, so the failure is this
// instance's and retryable.
func (c *Client) RunBody(ctx context.Context, req RunRequest) ([]byte, error) {
	resp, err := c.post(ctx, "/v1/run", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	tooLarge := &Error{Code: CodeInternal, Message: fmt.Sprintf("run response exceeds %d bytes", MaxRecordBytes), Retryable: true}
	if n := resp.ContentLength; n >= 0 {
		if n > MaxRecordBytes {
			return nil, tooLarge
		}
		b := make([]byte, n)
		got, err := io.ReadFull(resp.Body, b)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("run response ends after %d of its %d bytes", got, n), Retryable: true}
		case err != nil:
			return nil, &Error{Code: CodeUnavailable, Message: fmt.Sprintf("bad run response: %v", err), Retryable: true}
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxRecordBytes+1))
	if err != nil {
		// A response cut off mid-body is a transport failure, not a result.
		return nil, &Error{Code: CodeUnavailable, Message: fmt.Sprintf("bad run response: %v", err), Retryable: true}
	}
	if len(b) > MaxRecordBytes {
		return nil, tooLarge
	}
	return b, nil
}

// Run executes one configuration via POST /v1/run and returns the
// single-record result set exactly as the server encoded it.
func (c *Client) Run(ctx context.Context, req RunRequest) (*metrics.ResultSet, error) {
	b, err := c.RunBody(ctx, req)
	if err != nil {
		return nil, err
	}
	var rs metrics.ResultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, &Error{Code: CodeUnavailable, Message: fmt.Sprintf("bad run response: %v", err), Retryable: true}
	}
	if len(rs.Records) != 1 {
		// The server was reachable and answered 200, so this is not
		// "unavailable" — it is a malformed answer from this instance
		// (a correct server returns exactly one record). Retryable so a
		// proxy re-routes to a different replica, but explicitly so: a
		// plain Errorf(CodeInternal) would mark it deterministic.
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("run response carries %d records, want 1", len(rs.Records)), Retryable: true}
	}
	return &rs, nil
}

// Sweep executes a grid via POST /v1/sweep as an NDJSON stream (the
// request's Format is forced to "ndjson"), calling onRecord for each
// record in canonical configuration order. It validates the completion
// trailer and rejects trailerless streams with ErrTruncated: a truncated
// stream never silently passes for a complete sweep.
func (c *Client) Sweep(ctx context.Context, req SweepRequest, onRecord func(metrics.Record) error) (StreamHeader, error) {
	req.Format = "ndjson"
	resp, err := c.post(ctx, "/v1/sweep", req)
	if err != nil {
		return StreamHeader{}, err
	}
	defer resp.Body.Close()
	dec, err := NewStreamDecoder(resp.Body)
	if err != nil {
		return StreamHeader{}, err
	}
	for {
		rec, ok, err := dec.Next()
		if err != nil {
			return dec.Header(), err
		}
		if !ok {
			return dec.Header(), nil
		}
		if onRecord != nil {
			if err := onRecord(rec); err != nil {
				return dec.Header(), err
			}
		}
	}
}

// SweepSet is Sweep collected into a ResultSet carrying the streamed
// schema, fields, and records — encoding it as JSON reproduces the
// server's buffered "json" response byte for byte.
func (c *Client) SweepSet(ctx context.Context, req SweepRequest) (*metrics.ResultSet, error) {
	var rs metrics.ResultSet
	h, err := c.Sweep(ctx, req, func(rec metrics.Record) error {
		rs.Records = append(rs.Records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.Schema, rs.Fields = h.Schema, h.Fields
	return &rs, nil
}

// Healthz probes GET /healthz.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &Error{Code: CodeUnavailable, Message: err.Error(), Retryable: true}
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &Error{Code: CodeUnavailable, Message: fmt.Sprintf("healthz status %d", resp.StatusCode), Retryable: true}
	}
	return nil
}

// Experiment runs a named experiment via POST /v1/experiments/{id} and
// returns the raw response body plus its Content-Type, so a proxy can
// relay any of the endpoint's formats (json, csv, ndjson, text) without
// re-encoding. The caller must Close the body.
func (c *Client) Experiment(ctx context.Context, id string, req ExperimentRequest) (io.ReadCloser, string, error) {
	resp, err := c.post(ctx, "/v1/experiments/"+id, req)
	if err != nil {
		return nil, "", err
	}
	return resp.Body, resp.Header.Get("Content-Type"), nil
}

// Experiments lists the experiment registry via GET /v1/experiments.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/experiments", nil)
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &Error{Code: CodeUnavailable, Message: err.Error(), Retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		eb, _ := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
		return nil, DecodeError(resp.StatusCode, bytes.TrimSpace(eb))
	}
	var list []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, &Error{Code: CodeUnavailable, Message: fmt.Sprintf("bad experiments response: %v", err), Retryable: true}
	}
	return list, nil
}
