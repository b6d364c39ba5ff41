// Package service is the HTTP/JSON front end over repro.Engine: the
// transport and session layers that turn the in-process decomposition
// library into a served system. It exposes tensor upload (the hardened
// binary DPT2 format of internal/dataio), synchronous decomposition, an
// async job queue with poll/result handles, server-side streaming sessions
// whose durability is the Engine's SaveStream/ResumeStream checkpoint
// contract, and the Engine's admission statistics — all under the typed
// error taxonomy of docs/SERVICE.md.
//
// Every request's deterministic parameters travel as a repro.Spec (the
// canonical serializable job description); results travel as binary DPF2
// payloads, so a decomposition served over HTTP is bit-identical to the
// same call made in process. See docs/SERVICE.md for the endpoint table,
// the Spec wire schema, and the stream stickiness/resume contract.
package service

import (
	"repro"
)

// SpecRequest is the wire form of a request's decomposition parameters:
// every field optional, absent fields falling back to repro.DefaultSpec,
// as an in-process call without that option does. Present fields compile
// to the corresponding repro functional option (and so validate exactly
// like an in-process call); the server echoes the fully resolved canonical
// repro.Spec back in responses, which a client may replay verbatim via
// Full for bit-identical reruns.
type SpecRequest struct {
	// Full, when non-nil, replaces DefaultSpec entirely with a complete
	// canonical Spec (repro.WithSpec); the granular fields below then
	// apply on top of it.
	Full *repro.Spec `json:"full,omitempty"`

	Method       *string  `json:"method,omitempty"`
	Rank         *int     `json:"rank,omitempty"`
	MaxIters     *int     `json:"max_iters,omitempty"`
	Tol          *float64 `json:"tol,omitempty"`
	Seed         *uint64  `json:"seed,omitempty"`
	Oversample   *int     `json:"oversample,omitempty"`
	PowerIters   *int     `json:"power_iters,omitempty"`
	ShardRows    *int     `json:"shard_rows,omitempty"`
	Ridge        *float64 `json:"ridge,omitempty"`
	NonnegativeS *bool    `json:"nonneg_s,omitempty"`
}

// Options compiles the present fields into per-call options, in a fixed
// order (Full first, then the granular fields). Validation is deferred to
// the call the options are passed to, matching in-process behavior.
func (p SpecRequest) Options() []repro.Option {
	var opts []repro.Option
	if p.Full != nil {
		opts = append(opts, repro.WithSpec(*p.Full))
	}
	if p.Method != nil {
		opts = append(opts, repro.WithMethod(repro.MethodID(*p.Method)))
	}
	if p.Rank != nil {
		opts = append(opts, repro.WithRank(*p.Rank))
	}
	if p.MaxIters != nil {
		opts = append(opts, repro.WithMaxIters(*p.MaxIters))
	}
	if p.Tol != nil {
		opts = append(opts, repro.WithTolerance(*p.Tol))
	}
	if p.Seed != nil {
		opts = append(opts, repro.WithSeed(*p.Seed))
	}
	if p.Oversample != nil {
		opts = append(opts, repro.WithOversample(*p.Oversample))
	}
	if p.PowerIters != nil {
		opts = append(opts, repro.WithPowerIters(*p.PowerIters))
	}
	if p.ShardRows != nil {
		opts = append(opts, repro.WithShardRows(*p.ShardRows))
	}
	if p.Ridge != nil {
		opts = append(opts, repro.WithRidge(*p.Ridge))
	}
	if p.NonnegativeS != nil && *p.NonnegativeS {
		opts = append(opts, repro.WithNonnegativeS())
	}
	return opts
}

// TensorInfo describes one uploaded tensor. The ID is content-addressed
// (sha256 of the canonical DPT2 serialization), so re-uploading the same
// tensor — in any accepted encoding — yields the same ID.
type TensorInfo struct {
	TensorID string `json:"tensor_id"`
	K        int    `json:"k"`
	J        int    `json:"j"`
	MaxRows  int    `json:"max_rows"`
	Elements int64  `json:"elements"`
	Bytes    int64  `json:"bytes"`
}

// DecomposeRequest asks for one decomposition of a previously uploaded
// tensor — synchronously (POST /v1/decompose) or as an async job
// (POST /v1/jobs).
type DecomposeRequest struct {
	TensorID string      `json:"tensor_id"`
	Spec     SpecRequest `json:"spec"`

	// Tenant is the admission-quota bucket ("" = the default bucket) and
	// Priority the queue class, exactly as repro.Job documents them.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// TimeoutMillis bounds the whole job (queue wait + run); an exceeded
	// deadline maps to 504. 0 means no per-job deadline.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// ResultMeta is the run metadata every completed decomposition reports.
type ResultMeta struct {
	Fitness           float64 `json:"fitness"`
	FitnessKind       string  `json:"fitness_kind"`
	Iters             int     `json:"iters"`
	PreprocessedBytes int64   `json:"preprocessed_bytes"`
}

// DecomposeResponse is the synchronous decomposition reply: the resolved
// canonical Spec, run metadata, and the factors as DPF2 bytes (base64 in
// JSON) — decode with dataio.ReadResult (or Client.Decompose, which does).
type DecomposeResponse struct {
	Spec       repro.Spec `json:"spec"`
	Meta       ResultMeta `json:"meta"`
	ResultDPF2 []byte     `json:"result_dpf2"`
}

// Job lifecycle states. Jobs are in-memory request state, not durable
// system state: a restarted server has no jobs (streams, by contrast,
// resume from their checkpoints).
const (
	JobPending = "pending" // queued or running
	JobDone    = "done"    // result available at /v1/jobs/{id}/result
	JobFailed  = "failed"  // Error says why
)

// JobStatus is the poll view of one async job.
type JobStatus struct {
	JobID  string     `json:"job_id"`
	Status string     `json:"status"`
	Tenant string     `json:"tenant,omitempty"`
	Spec   repro.Spec `json:"spec"`

	// Meta is set once Status is JobDone; Error once JobFailed.
	Meta  *ResultMeta `json:"meta,omitempty"`
	Error *ErrorBody  `json:"error,omitempty"`
}

// StreamCreateRequest opens a server-side streaming session seeded with an
// uploaded tensor's slices. StreamID may name the session (letters, digits,
// '_', '-'; 64 bytes max); when empty the server assigns one. On a server
// with a state directory the session is checkpointed after creation and
// after every absorb, and a restarted server resumes it bit-identically —
// see docs/SERVICE.md for the stickiness contract.
type StreamCreateRequest struct {
	StreamID string      `json:"stream_id,omitempty"`
	TensorID string      `json:"tensor_id"`
	Spec     SpecRequest `json:"spec"`
}

// AbsorbRequest absorbs an uploaded tensor's slices into a stream as its
// next batch. (POST /v1/streams/{id}/absorb also accepts raw DPT2 bytes as
// an application/octet-stream body instead of this JSON envelope.)
type AbsorbRequest struct {
	TensorID string `json:"tensor_id"`
}

// StreamInfo is the status view of one streaming session.
type StreamInfo struct {
	StreamID string     `json:"stream_id"`
	Spec     repro.Spec `json:"spec"`
	// K is the total number of slices absorbed so far (initial batch
	// included); Absorbs counts absorb calls on this server since start
	// or resume.
	K       int   `json:"k"`
	Absorbs int64 `json:"absorbs"`
	// Resumed reports the session was restored from a checkpoint when this
	// server started. Spec echoes the resolved Spec the session was created
	// with; the checkpoint stores it, so it survives restarts.
	Resumed bool       `json:"resumed"`
	Durable bool       `json:"durable"` // checkpointed to the state dir
	Meta    ResultMeta `json:"meta"`    // current factors' metadata
}

// StatsResponse is the /v1/stats reply: the Engine's served-traffic
// snapshot (Engine.Stats, always present), result-cache counters totalled
// over its tenants, and the server's own resource counts.
type StatsResponse struct {
	Engine  *repro.EngineStatsSnapshot `json:"engine,omitempty"`
	Cache   CacheCounts                `json:"cache"`
	Tensors int                        `json:"tensors"`
	Jobs    JobCounts                  `json:"jobs"`
	Streams int                        `json:"streams"`
}

// CacheCounts totals the result-cache hits and misses of every tenant in
// the Engine's stats.
type CacheCounts struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// JobCounts breaks the in-memory job table down by lifecycle state.
type JobCounts struct {
	Pending int `json:"pending"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// ErrorBody is the uniform error payload: every non-2xx response carries
// {"error": ErrorBody}. Code is machine-readable (see docs/SERVICE.md for
// the taxonomy); Tenant is set on quota rejections.
type ErrorBody struct {
	Code    string `json:"code"`
	Status  int    `json:"status"`
	Message string `json:"message"`
	Tenant  string `json:"tenant,omitempty"`
}

// ErrorResponse is the envelope ErrorBody travels in.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// Error codes of the taxonomy (docs/SERVICE.md). Transport-level mappings:
// quota → 429 with Retry-After, engine closed → 503 with Retry-After,
// corrupt/invalid input → 400, oversized body → 413, missing resource →
// 404, deadline → 504.
const (
	CodeBadJSON          = "bad_json"
	CodeBadRequest       = "bad_request"
	CodeCorruptInput     = "corrupt_input"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeQuotaExhausted   = "quota_exhausted"
	CodeEngineClosed     = "engine_closed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	CodeBodyTooLarge     = "body_too_large"
	CodeResultNotReady   = "result_not_ready"
	CodeInternal         = "internal"
)
