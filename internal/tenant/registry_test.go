package tenant

import (
	"errors"
	"fmt"
	"testing"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
)

func openOK(t *testing.T, r *Registry, key JobKey, wid, workers, node int) uint32 {
	t.Helper()
	ns := protocol.NamespaceOf(key.Tenant, key.Job)
	if reason, err := r.OpenJob(key, ns, wid, workers, node); err != nil {
		t.Fatalf("OpenJob(%s) = reason %d, %v; want accept", key, reason, err)
	}
	return ns
}

func TestOpenJobAndAdmit(t *testing.T) {
	r := NewRegistry(Config{}, nil, 2)
	key := JobKey{Tenant: "prod", Job: "ranker"}
	ns := openOK(t, r, key, 0, 2, 10)
	openOK(t, r, key, 1, 2, 11)

	if got := r.WorkersOf(ns); got != 2 {
		t.Fatalf("WorkersOf(%d) = %d, want 2", ns, got)
	}
	if got := r.TenantOf(ns); got != "prod" {
		t.Fatalf("TenantOf = %q, want prod", got)
	}

	tid := protocol.TidFor(ns, 1)
	if _, err := r.AdmitOp(tid, 0, 10); err != nil {
		t.Fatalf("AdmitOp: %v", err)
	}
	if got := r.ActiveOps(); got != 1 {
		t.Fatalf("ActiveOps = %d, want 1", got)
	}
	// Result routing resolves the job-relative wid to its bound node.
	if node, ok := r.NodeFor(tid, 1); !ok || node != 11 {
		t.Fatalf("NodeFor(wid 1) = %d, %v; want 11, true", node, ok)
	}

	// Slot lifecycle drives the op to completion.
	r.SlotOpened(tid)
	r.SlotOpened(tid)
	if got := r.LiveSlots(); got != 2 {
		t.Fatalf("LiveSlots = %d, want 2", got)
	}
	r.SlotFinished(tid)
	if got := r.ActiveOps(); got != 1 {
		t.Fatalf("ActiveOps after one slot = %d, want 1", got)
	}
	r.SlotFinished(tid)
	if got := r.ActiveOps(); got != 0 {
		t.Fatalf("ActiveOps after all slots = %d, want 0", got)
	}
	if got := r.LiveSlots(); got != 0 {
		t.Fatalf("LiveSlots = %d, want 0", got)
	}
}

func TestOpenJobRefusals(t *testing.T) {
	r := NewRegistry(Config{}, nil, 2)
	key := JobKey{Tenant: "prod", Job: "ranker"}
	ns := openOK(t, r, key, 0, 4, 10)

	// Squatting: claiming a namespace that key does not derive to.
	bad := JobKey{Tenant: "prod", Job: "other"}
	if _, err := r.OpenJob(bad, ns, 0, 4, 10); !errors.Is(err, ErrAdmissionRejected) &&
		!errors.Is(err, ErrTidCollision) {
		t.Fatalf("squatting open = %v; want refusal", err)
	}
	// Worker-count mismatch on reopen.
	if _, err := r.OpenJob(key, ns, 1, 8, 11); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("worker-count mismatch = %v; want ErrAdmissionRejected", err)
	}
	// Same wid re-opened from a different node is a collision.
	if _, err := r.OpenJob(key, ns, 0, 4, 99); !errors.Is(err, ErrTidCollision) {
		t.Fatalf("node rebind = %v; want ErrTidCollision", err)
	}
	// Invalid identities never register.
	if _, err := r.OpenJob(JobKey{}, 0, 0, 1, 0); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := r.OpenJob(key, ns, 7, 4, 10); err == nil {
		t.Fatal("out-of-range wid accepted")
	}
}

// collidingKey brute-forces a job name whose namespace collides with
// key's — the deterministic hash has 4095 buckets, so a few thousand
// candidates always suffice.
func collidingKey(t *testing.T, key JobKey) JobKey {
	t.Helper()
	want := protocol.NamespaceOf(key.Tenant, key.Job)
	for i := 0; i < 1_000_000; i++ {
		cand := JobKey{Tenant: key.Tenant, Job: fmt.Sprintf("cand-%d", i)}
		if cand != key && protocol.NamespaceOf(cand.Tenant, cand.Job) == want {
			return cand
		}
	}
	t.Fatal("no colliding key found")
	return JobKey{}
}

func TestNamespaceHashCollision(t *testing.T) {
	r := NewRegistry(Config{}, nil, 2)
	key := JobKey{Tenant: "prod", Job: "ranker"}
	ns := openOK(t, r, key, 0, 2, 10)

	other := collidingKey(t, key)
	if _, err := r.OpenJob(other, ns, 0, 2, 20); !errors.Is(err, ErrTidCollision) {
		t.Fatalf("hash collision open = %v; want ErrTidCollision", err)
	}
	// Once the holder closes, the namespace frees up for the other job.
	r.CloseJob(ns, 0)
	if _, err := r.OpenJob(other, ns, 0, 2, 20); err != nil {
		t.Fatalf("open after close = %v; want accept", err)
	}
}

func TestMaxJobsQuota(t *testing.T) {
	cfg := Config{Tenants: map[string]Quota{"small": {MaxJobs: 1}}}
	r := NewRegistry(cfg, nil, 2)
	openOK(t, r, JobKey{Tenant: "small", Job: "a"}, 0, 2, 10)
	key := JobKey{Tenant: "small", Job: "b"}
	if _, err := r.OpenJob(key, protocol.NamespaceOf(key.Tenant, key.Job), 0, 2, 10); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("second job = %v; want ErrTenantQuota", err)
	}
	// Another tenant is unaffected.
	openOK(t, r, JobKey{Tenant: "big", Job: "b"}, 0, 2, 10)
}

func TestMaxInFlightOpsQuota(t *testing.T) {
	cfg := Config{Tenants: map[string]Quota{"small": {MaxInFlightOps: 1}}}
	r := NewRegistry(cfg, nil, 2)
	key := JobKey{Tenant: "small", Job: "a"}
	ns := openOK(t, r, key, 0, 2, 10)

	tid1, tid2 := protocol.TidFor(ns, 1), protocol.TidFor(ns, 2)
	if _, err := r.AdmitOp(tid1, 0, 10); err != nil {
		t.Fatalf("first op: %v", err)
	}
	reason, err := r.AdmitOp(tid2, 0, 10)
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("second op = %v; want ErrTenantQuota", err)
	}
	if got := ErrorForReason(reason); !errors.Is(got, ErrTenantQuota) {
		t.Fatalf("reason %d maps to %v; want ErrTenantQuota", reason, got)
	}
	// The verdict is memoized: a sibling worker gets the identical refusal.
	if _, err := r.AdmitOp(tid2, 1, 11); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("sibling re-ask = %v; want memoized ErrTenantQuota", err)
	}
	if rr, ok := r.RejectedReason(tid2); !ok || rr != reason {
		t.Fatalf("RejectedReason = %d, %v; want %d, true", rr, ok, reason)
	}

	// When the first op finishes, capacity frees for a new tid.
	r.SlotOpened(tid1)
	r.SlotFinished(tid1)
	if _, err := r.AdmitOp(protocol.TidFor(ns, 3), 0, 10); err != nil {
		t.Fatalf("op after completion: %v", err)
	}
}

func TestAdmitOpRefusals(t *testing.T) {
	r := NewRegistry(Config{}, nil, 2)
	// Unknown namespace.
	if _, err := r.AdmitOp(protocol.TidFor(77, 1), 0, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown ns = %v; want ErrUnknownJob", err)
	}
	// Default-namespace collision: one wid claimed from two nodes (the
	// legacy two-clusters-one-aggregator hazard).
	if _, err := r.AdmitOp(protocol.TidFor(0, 1), 0, 0); err != nil {
		t.Fatalf("first cluster: %v", err)
	}
	if _, err := r.AdmitOp(protocol.TidFor(0, 2), 0, 5); !errors.Is(err, ErrTidCollision) {
		t.Fatalf("second cluster = %v; want ErrTidCollision", err)
	}
	// Out-of-range wid on the default namespace is admitted: the machine's
	// protocol error is the legacy contract for that misconfiguration.
	if _, err := r.AdmitOp(protocol.TidFor(0, 3), 9, 0); err != nil {
		t.Fatalf("legacy out-of-range wid = %v; want admit", err)
	}
	// On a named job it is refused.
	key := JobKey{Tenant: "prod", Job: "x"}
	ns := openOK(t, r, key, 0, 2, 10)
	if _, err := r.AdmitOp(protocol.TidFor(ns, 1), 9, 10); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("named out-of-range wid = %v; want ErrAdmissionRejected", err)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	r := NewRegistry(Config{}, nil, 2)
	key := JobKey{Tenant: "prod", Job: "ranker"}
	ns := openOK(t, r, key, 0, 2, 10)
	tid := protocol.TidFor(ns, 1)
	if _, err := r.AdmitOp(tid, 0, 10); err != nil {
		t.Fatalf("pre-drain op: %v", err)
	}
	r.SlotOpened(tid)

	r.StartDrain()
	if !r.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	// New jobs and new ops refuse with the drain error...
	k2 := JobKey{Tenant: "prod", Job: "late"}
	if _, err := r.OpenJob(k2, protocol.NamespaceOf(k2.Tenant, k2.Job), 0, 2, 10); !errors.Is(err, ErrDraining) {
		t.Fatalf("open during drain = %v; want ErrDraining", err)
	}
	if _, err := r.AdmitOp(protocol.TidFor(ns, 2), 0, 10); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit during drain = %v; want ErrDraining", err)
	}
	// ...while the in-flight op keeps running to completion.
	if got := r.ActiveOps(); got != 1 {
		t.Fatalf("ActiveOps = %d, want 1", got)
	}
	r.SlotFinished(tid)
	if got, slots := r.ActiveOps(), r.LiveSlots(); got != 0 || slots != 0 {
		t.Fatalf("post-drain ActiveOps=%d LiveSlots=%d, want 0/0", got, slots)
	}
}

func TestSlotReactivation(t *testing.T) {
	// A slot opening for a tid with no op entry (reordered bootstrap after
	// completion) re-activates accounting instead of going untracked.
	r := NewRegistry(Config{}, nil, 2)
	tid := protocol.TidFor(0, 1)
	r.SlotOpened(tid)
	if got := r.ActiveOps(); got != 1 {
		t.Fatalf("ActiveOps = %d, want 1 (re-activated)", got)
	}
	r.SlotFinished(tid)
	if got := r.ActiveOps(); got != 0 {
		t.Fatalf("ActiveOps = %d, want 0", got)
	}
	// Unknown namespace slots are ignored entirely.
	r.SlotOpened(protocol.TidFor(55, 1))
	if got := r.LiveSlots(); got != 0 {
		t.Fatalf("LiveSlots = %d, want 0 for unknown ns", got)
	}
}

// TestTenantMetricsAccounting reads a tenant's accounting where the
// registry publishes it: the tenant:<name>:* metrics of the obs registry
// it was built with.
func TestTenantMetricsAccounting(t *testing.T) {
	cfg := Config{Tenants: map[string]Quota{"small": {MaxInFlightOps: 1}}}
	reg := obs.NewRegistry()
	r := NewRegistry(cfg, reg, 2)
	key := JobKey{Tenant: "small", Job: "a"}
	ns := openOK(t, r, key, 0, 2, 10)
	r.AdmitOp(protocol.TidFor(ns, 1), 0, 10)
	r.AdmitOp(protocol.TidFor(ns, 2), 0, 10) // rejected: quota

	for _, m := range []struct {
		name      string
		got, want int64
	}{
		{"jobs_active", reg.Gauge("tenant:small:jobs_active").Load(), 1},
		{"ops_active", reg.Gauge("tenant:small:ops_active").Load(), 1},
		{"ops_admitted", reg.Counter("tenant:small:ops_admitted").Load(), 1},
		{"ops_rejected", reg.Counter("tenant:small:ops_rejected").Load(), 1},
	} {
		if m.got != m.want {
			t.Errorf("tenant:small:%s = %d, want %d", m.name, m.got, m.want)
		}
	}
}

func TestWeightDefaults(t *testing.T) {
	cfg := Config{Tenants: map[string]Quota{"heavy": {Weight: 4}}}
	r := NewRegistry(cfg, nil, 2)
	key := JobKey{Tenant: "heavy", Job: "a"}
	ns := openOK(t, r, key, 0, 2, 10)
	if got := r.Weight(ns); got != 4 {
		t.Fatalf("Weight(heavy) = %d, want 4", got)
	}
	if got := r.Weight(0); got != 1 {
		t.Fatalf("Weight(default) = %d, want 1", got)
	}
	if got := r.Weight(999); got != 1 {
		t.Fatalf("Weight(unknown) = %d, want 1", got)
	}
}
