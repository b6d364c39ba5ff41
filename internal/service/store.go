package service

import (
	"encoding/hex"

	"repro"
)

// This file is the server's in-memory resource tables. All three are plain
// structs guarded by the owning Server's mutex — none blocks while held, so
// handlers lock only around table reads/writes and do every engine call
// (which may block on admission backpressure or the pool) unlocked.

// ----- tensors ---------------------------------------------------------------

// storedTensor is one uploaded tensor: the parsed form, its content digest
// (computed once, at upload, and handed to the Engine with every job on the
// tensor so the result-cache key never hashes it again) plus its wire info.
// No served path mutates the tensor, so the digest stays valid.
type storedTensor struct {
	tensor *repro.Irregular
	digest repro.TensorDigest
	info   TensorInfo
}

// tensorStore is a content-addressed tensor table with LRU eviction by
// count. Uploads are idempotent: the ID is a prefix of the tensor's
// repro.TensorDigest, the sha256 of its canonical DPT2 serialization, so
// the same tensor re-uploaded lands on the same entry.
type tensorStore struct {
	max   int
	byID  map[string]*storedTensor
	order []string // access order, oldest first
}

func newTensorStore(max int) *tensorStore {
	return &tensorStore{max: max, byID: make(map[string]*storedTensor)}
}

// tensorID derives the content address of a tensor from its digest: the
// hex of its first 16 bytes. The digest covers the canonical serialization
// (not the uploaded bytes), so any byte stream that decodes to the same
// tensor gets the same ID.
func tensorID(d repro.TensorDigest) string {
	return "t-" + hex.EncodeToString(d[:16])
}

// put inserts (or refreshes) a tensor under its digest d and returns its
// info, evicting the least-recently-used entries beyond the cap.
func (ts *tensorStore) put(t *repro.Irregular, d repro.TensorDigest) TensorInfo {
	id := tensorID(d)
	if st, ok := ts.byID[id]; ok {
		ts.touch(id)
		return st.info
	}
	info := TensorInfo{
		TensorID: id,
		K:        t.K(),
		J:        t.J,
		MaxRows:  t.MaxRows(),
		Elements: int64(t.NumElements()),
		Bytes:    t.SizeBytes(),
	}
	ts.byID[id] = &storedTensor{tensor: t, digest: d, info: info}
	ts.order = append(ts.order, id)
	for len(ts.order) > ts.max {
		victim := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.byID, victim)
	}
	return info
}

// get looks a tensor up and marks it recently used.
func (ts *tensorStore) get(id string) (*storedTensor, bool) {
	st, ok := ts.byID[id]
	if ok {
		ts.touch(id)
	}
	return st, ok
}

func (ts *tensorStore) touch(id string) {
	for i, cur := range ts.order {
		if cur == id {
			ts.order = append(append(ts.order[:i:i], ts.order[i+1:]...), id)
			return
		}
	}
}

func (ts *tensorStore) len() int { return len(ts.byID) }

// ----- jobs ------------------------------------------------------------------

// jobRec is one async job. Status/meta/errBody/resultDPF2 are written once
// by the completion path (the submit handler on an immediate result, or the
// watcher goroutine) and read by the poll handlers, all under the Server's
// mutex. cancel releases the job's context; it is always called exactly once
// at completion, and may be called again by DELETE (contexts make that
// idempotent).
type jobRec struct {
	id     string
	tenant string
	spec   repro.Spec
	cancel func()

	status     string
	meta       *ResultMeta
	errBody    *ErrorBody
	resultDPF2 []byte
}

func (j *jobRec) statusView() JobStatus {
	return JobStatus{
		JobID:  j.id,
		Status: j.status,
		Tenant: j.tenant,
		Spec:   j.spec,
		Meta:   j.meta,
		Error:  j.errBody,
	}
}

// ----- streams ---------------------------------------------------------------

// streamRec is one server-side streaming session. The Server's mutex guards
// only the table slot; the session itself — the stream object and the
// counters beside it — is serialized by sem, a capacity-1 semaphore channel
// that absorb/status/result handlers acquire context-aware. A channel
// (not a mutex) because the holder blocks in AbsorbCtx on the shared pool:
// waiters must stay cancellable, and nothing may sleep on a lock.
type streamRec struct {
	id  string
	sem chan struct{}

	st      *repro.StreamingDPar2
	absorbs int64
	resumed bool
	durable bool // checkpointed under the Engine's state dir
}

func newStreamRec(id string, st *repro.StreamingDPar2, resumed, durable bool) *streamRec {
	return &streamRec{
		id:      id,
		sem:     make(chan struct{}, 1),
		st:      st,
		resumed: resumed,
		durable: durable,
	}
}

// infoView renders the status view. Callers hold the record's semaphore.
func (sr *streamRec) infoView() StreamInfo {
	res := sr.st.Result()
	return StreamInfo{
		StreamID: sr.id,
		Spec:     repro.StreamSpec(sr.st),
		K:        sr.st.K(),
		Absorbs:  sr.absorbs,
		Resumed:  sr.resumed,
		Durable:  sr.durable,
		Meta:     metaOf(res),
	}
}

// metaOf extracts the wire metadata of a result.
func metaOf(res *repro.Result) ResultMeta {
	return ResultMeta{
		Fitness:           res.Fitness,
		FitnessKind:       res.FitnessKind.String(),
		Iters:             res.Iters,
		PreprocessedBytes: res.PreprocessedBytes,
	}
}

// encodedMeta extracts the wire metadata of an encoded result.
func encodedMeta(enc repro.EncodedResult) ResultMeta {
	return ResultMeta{
		Fitness:           enc.Fitness,
		FitnessKind:       enc.FitnessKind.String(),
		Iters:             enc.Iters,
		PreprocessedBytes: enc.PreprocessedBytes,
	}
}

// validStreamID enforces the documented name shape: 1–64 bytes of letters,
// digits, '_', '-' (it becomes a checkpoint file name, so path metacharacters
// must never pass).
func validStreamID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
