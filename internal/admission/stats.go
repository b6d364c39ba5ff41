package admission

import (
	"fmt"
	"strings"
	"time"
)

// TenantStats is one tenant's aggregate view of the traffic it was served.
//
// The JSON tags are a stable wire contract consumed by the HTTP service's
// /v1/stats endpoint (docs/SERVICE.md): renaming one is a breaking change.
// Durations marshal as integer nanoseconds (encoding/json's time.Duration
// default), hence the _ns suffixes.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Admitted  int64  `json:"admitted"`  // tickets that entered the queue
	Rejected  int64  `json:"rejected"`  // admits refused (quota, closed, ctx during backpressure)
	Started   int64  `json:"started"`   // tickets handed to a worker
	Completed int64  `json:"completed"` // finished with a nil error
	Failed    int64  `json:"failed"`    // finished with a non-nil error
	Cancelled int64  `json:"cancelled"` // cancelled while still queued

	QueueWait time.Duration `json:"queue_wait_ns"` // total time started+cancelled tickets sat queued
	RunTime   time.Duration `json:"run_time_ns"`   // total pop-to-Finish time of finished tickets

	CacheHits   int64 `json:"cache_hits"`   // result-cache hits (method never invoked)
	CacheMisses int64 `json:"cache_misses"` // result-cache misses (method ran)
}

// StatsSnapshot is the marshallable view of a Queue's statistics, as
// Queue.Stats returns it: every tenant's aggregates in deterministic (sorted
// by tenant name) order plus the queue's high-water depth. It is the
// /v1/stats wire shape.
type StatsSnapshot struct {
	Tenants  []TenantStats `json:"tenants"`
	MaxDepth int           `json:"max_depth"`
}

// MeanQueueWait is the average time a started or cancelled ticket spent
// queued (0 when none have left the queue yet).
func (t TenantStats) MeanQueueWait() time.Duration {
	n := t.Started + t.Cancelled
	if n == 0 {
		return 0
	}
	return t.QueueWait / time.Duration(n)
}

// MeanRunTime is the average pop-to-Finish latency (0 when nothing finished).
func (t TenantStats) MeanRunTime() time.Duration {
	n := t.Completed + t.Failed
	if n == 0 {
		return 0
	}
	return t.RunTime / time.Duration(n)
}

// Tenant returns one tenant's row (the zero row if the tenant is unseen).
func (s StatsSnapshot) Tenant(name string) TenantStats {
	for _, t := range s.Tenants {
		if t.Tenant == name {
			return t
		}
	}
	return TenantStats{Tenant: name}
}

// String renders the served-traffic table — one row per tenant plus the
// queue's high-water depth. Meant for CLIs and examples; structured
// consumers should read the fields.
func (s StatsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s %7s %7s %7s %11s %11s\n",
		"tenant", "admitted", "rejected", "completed", "failed", "cancel", "c-hit", "c-miss", "mean-wait", "mean-run")
	for _, t := range s.Tenants {
		name := t.Tenant
		if name == "" {
			name = "(default)"
		}
		fmt.Fprintf(&b, "%-12s %9d %9d %9d %9d %7d %7d %7d %11v %11v\n",
			name, t.Admitted, t.Rejected, t.Completed, t.Failed, t.Cancelled,
			t.CacheHits, t.CacheMisses,
			t.MeanQueueWait().Round(time.Microsecond),
			t.MeanRunTime().Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "max queue depth: %d\n", s.MaxDepth)
	return b.String()
}
