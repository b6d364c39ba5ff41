package admission

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// TestStatsJSONRoundTrip: marshalling a queue's Stats snapshot and
// unmarshalling it into a StatsSnapshot is lossless, with tenants in
// deterministic sorted order.
func TestStatsJSONRoundTrip(t *testing.T) {
	q := New[int](Config{Capacity: 8, DefaultQuota: Quota{MaxQueued: 1}})
	// Drive every transition, out of tenant-name order, so the test also
	// pins the sorted output ordering.
	mustAdmit(t, q, "zeta", 5, 0)
	tk, _ := q.Pop()
	tk.Finish(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	if _, err := q.Admit(ctx, "alpha", 0, 1, func(err error) { cancelled <- err }); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit(context.Background(), "alpha", 0, 2, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota admit: %v", err)
	}
	cancel()
	<-cancelled
	mustAdmit(t, q, "mid", 1, 3)
	tk, _ = q.Pop()
	tk.Finish(errors.New("boom"))
	q.NoteCache("alpha", true)
	q.NoteCache("alpha", false)

	want := q.Stats()
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}

	if snap.MaxDepth != want.MaxDepth {
		t.Fatalf("max_depth %d, want %d", snap.MaxDepth, want.MaxDepth)
	}
	if len(snap.Tenants) != len(want.Tenants) {
		t.Fatalf("tenant count %d, want %d", len(snap.Tenants), len(want.Tenants))
	}
	for i := range want.Tenants {
		if snap.Tenants[i] != want.Tenants[i] {
			t.Fatalf("tenant %d: %+v, want %+v", i, snap.Tenants[i], want.Tenants[i])
		}
	}
	// Deterministic ordering: sorted by tenant name.
	for i := 1; i < len(snap.Tenants); i++ {
		if snap.Tenants[i-1].Tenant >= snap.Tenants[i].Tenant {
			t.Fatalf("tenants not sorted: %q before %q",
				snap.Tenants[i-1].Tenant, snap.Tenants[i].Tenant)
		}
	}
}

// TestStatsJSONDeterministic: repeated marshals of the same state are
// byte-identical (map iteration order must not leak into the output).
func TestStatsJSONDeterministic(t *testing.T) {
	q := New[int](Config{Capacity: 8})
	for i, tenant := range []string{"b", "a", "c", "", "d"} {
		mustAdmit(t, q, tenant, 0, i)
	}
	first, err := json.Marshal(q.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := json.Marshal(q.Stats())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("marshal %d differs:\n%s\n%s", i, first, again)
		}
	}
}

// TestStatsJSONFieldNames pins the wire contract /v1/stats documents.
func TestStatsJSONFieldNames(t *testing.T) {
	q := New[int](Config{Capacity: 8})
	mustAdmit(t, q, "t", 0, 0)
	raw, err := json.Marshal(q.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"tenants"`, `"max_depth"`, `"tenant"`,
		`"admitted"`, `"rejected"`, `"started"`, `"completed"`, `"failed"`,
		`"cancelled"`, `"queue_wait_ns"`, `"run_time_ns"`, `"cache_hits"`,
		`"cache_misses"`} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Errorf("wire form missing field %s: %s", field, raw)
		}
	}
}
