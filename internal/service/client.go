package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro"
	"repro/internal/dataio"
)

// Client is a typed Go client for the service API — the same client the
// e2e tests, the loopback benchmark, and examples/service use. The zero
// value is not usable; construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server at base (e.g. "http://127.0.0.1:8080"). A nil
// hc uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// APIError is a non-2xx reply decoded into the wire taxonomy; errors.As
// recovers it from any Client method's error.
type APIError struct {
	Body ErrorBody
	// RetryAfter echoes the Retry-After header ("" when absent), set on
	// quota (429) and engine-closed (503) replies.
	RetryAfter string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: %s (%d): %s", e.Body.Code, e.Body.Status, e.Body.Message)
}

// do issues one request. A JSON in is marshalled as the body; a non-nil out
// decodes a 2xx JSON reply; a *[]byte out captures a raw binary reply.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	contentType := ""
	switch v := in.(type) {
	case nil:
	case []byte:
		body = bytes.NewReader(v)
		contentType = "application/octet-stream"
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("service client: marshal request: %w", err)
		}
		body = bytes.NewReader(raw)
		contentType = "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("service client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("service client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error.Code == "" {
			er.Error = ErrorBody{Code: CodeInternal, Status: resp.StatusCode,
				Message: fmt.Sprintf("%s %s: HTTP %d", method, path, resp.StatusCode)}
		}
		return &APIError{Body: er.Error, RetryAfter: resp.Header.Get("Retry-After")}
	}
	switch v := out.(type) {
	case nil:
		return nil
	case *[]byte:
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("service client: read %s: %w", path, err)
		}
		*v = raw
		return nil
	default:
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return fmt.Errorf("service client: decode %s reply: %w", path, err)
		}
		return nil
	}
}

// Health checks /v1/healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Stats fetches the server's traffic and resource snapshot.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// UploadTensor serializes a tensor to DPT2 and uploads it, returning its
// content-addressed handle. Idempotent: the same tensor lands on the same ID.
func (c *Client) UploadTensor(ctx context.Context, t *repro.Irregular) (TensorInfo, error) {
	var buf bytes.Buffer
	if err := dataio.WriteTensor(&buf, t); err != nil {
		return TensorInfo{}, fmt.Errorf("service client: encode tensor: %w", err)
	}
	var out TensorInfo
	err := c.do(ctx, http.MethodPost, "/v1/tensors", buf.Bytes(), &out)
	return out, err
}

// decodeResult turns a DPF2 payload plus its wire metadata back into a
// Result. ReadResult deliberately drops run metadata from the binary form;
// the reply's meta carries it, so the round trip restores what a hit on the
// Engine's result cache would.
func decodeResult(raw []byte, meta ResultMeta) (*repro.Result, error) {
	res, err := dataio.ReadResult(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("service client: decode result: %w", err)
	}
	res.Fitness = meta.Fitness
	res.FitnessKind = parseFitnessKind(meta.FitnessKind)
	res.Iters = meta.Iters
	res.PreprocessedBytes = meta.PreprocessedBytes
	return res, nil
}

func parseFitnessKind(s string) repro.FitnessKind {
	switch s {
	case repro.FitnessTrue.String():
		return repro.FitnessTrue
	case repro.FitnessCompressed.String():
		return repro.FitnessCompressed
	default:
		return repro.FitnessUnset
	}
}

// Decompose runs one synchronous decomposition and decodes the factors. The
// raw reply (canonical Spec, metadata, DPF2 bytes) comes back alongside.
func (c *Client) Decompose(ctx context.Context, req DecomposeRequest) (*repro.Result, DecomposeResponse, error) {
	var out DecomposeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/decompose", req, &out); err != nil {
		return nil, DecomposeResponse{}, err
	}
	res, err := decodeResult(out.ResultDPF2, out.Meta)
	if err != nil {
		return nil, out, err
	}
	return res, out, nil
}

// SubmitJob enqueues an async decomposition and returns its handle.
func (c *Client) SubmitJob(ctx context.Context, req DecomposeRequest) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// JobStatus polls one job.
func (c *Client) JobStatus(ctx context.Context, jobID string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(jobID), nil, &out)
	return out, err
}

// JobResult fetches a finished job's factors, patched with the job's run
// metadata. A still-pending job returns the result_not_ready APIError.
func (c *Client) JobResult(ctx context.Context, jobID string) (*repro.Result, error) {
	st, err := c.JobStatus(ctx, jobID)
	if err != nil {
		return nil, err
	}
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(jobID)+"/result", nil, &raw); err != nil {
		return nil, err
	}
	meta := ResultMeta{}
	if st.Meta != nil {
		meta = *st.Meta
	}
	return decodeResult(raw, meta)
}

// CancelJob cancels (if still pending) and forgets a job.
func (c *Client) CancelJob(ctx context.Context, jobID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(jobID), nil, nil)
}

// CreateStream opens a server-side streaming session.
func (c *Client) CreateStream(ctx context.Context, req StreamCreateRequest) (StreamInfo, error) {
	var out StreamInfo
	err := c.do(ctx, http.MethodPost, "/v1/streams", req, &out)
	return out, err
}

// StreamInfo polls one streaming session.
func (c *Client) StreamInfo(ctx context.Context, streamID string) (StreamInfo, error) {
	var out StreamInfo
	err := c.do(ctx, http.MethodGet, "/v1/streams/"+url.PathEscape(streamID), nil, &out)
	return out, err
}

// Absorb feeds a session its next batch, shipped inline as DPT2 bytes.
func (c *Client) Absorb(ctx context.Context, streamID string, batch *repro.Irregular) (StreamInfo, error) {
	var buf bytes.Buffer
	if err := dataio.WriteTensor(&buf, batch); err != nil {
		return StreamInfo{}, fmt.Errorf("service client: encode batch: %w", err)
	}
	var out StreamInfo
	err := c.do(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(streamID)+"/absorb", buf.Bytes(), &out)
	return out, err
}

// AbsorbTensor feeds a session a previously uploaded tensor's slices.
func (c *Client) AbsorbTensor(ctx context.Context, streamID, tensorID string) (StreamInfo, error) {
	var out StreamInfo
	err := c.do(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(streamID)+"/absorb",
		AbsorbRequest{TensorID: tensorID}, &out)
	return out, err
}

// StreamResult fetches a session's current factors, patched with the
// session's current metadata.
func (c *Client) StreamResult(ctx context.Context, streamID string) (*repro.Result, error) {
	info, err := c.StreamInfo(ctx, streamID)
	if err != nil {
		return nil, err
	}
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/streams/"+url.PathEscape(streamID)+"/result", nil, &raw); err != nil {
		return nil, err
	}
	return decodeResult(raw, info.Meta)
}

// StreamResultBytes fetches the raw DPF2 bytes of a session's current
// factors — the form the bit-identity tests compare.
func (c *Client) StreamResultBytes(ctx context.Context, streamID string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/streams/"+url.PathEscape(streamID)+"/result", nil, &raw)
	return raw, err
}
