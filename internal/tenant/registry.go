package tenant

import (
	"fmt"
	"sync"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
)

// Registry is an aggregator's job registry: the authoritative record of
// which jobs are open, which tenants own them, which tensor-ID
// namespaces they occupy, which transport nodes their workers live at,
// and how many collectives each tenant has in flight. It makes every
// admission decision — job open, first packet of a new operation — and
// turns violations into typed errors with wire reason codes.
//
// Concurrency: OpenJob/AdmitOp are called by the aggregator's
// single-threaded packet router; SlotOpened/SlotFinished arrive from the
// merge-shard goroutines; Drain polling and obs scraping come from
// anywhere. One mutex guards it all — these are per-operation events (a
// handful per collective), not per-packet ones, so the lock is far off
// the datapath.
type Registry struct {
	mu       sync.Mutex
	cfg      Config
	jobs     map[uint32]*jobEntry    // by tensor-ID namespace
	tenants  map[string]*tenantEntry // by tenant name
	ops      map[uint32]*opEntry     // in-flight collectives by tensor ID
	rejected map[uint32]uint8        // rejected tids -> reason (so every worker's packets get the same typed refusal)
	liveSlot int                     // live per-tensor slot states across all merge shards
	draining bool
	obs      *obs.Registry
}

type jobEntry struct {
	key     JobKey
	ns      uint32
	workers int
	// nodes[wid] is the transport node each job-relative worker ID is
	// bound to: from the JobOpen sender for named jobs, from first-packet
	// attribution for the default namespace. A later packet claiming the
	// same wid from a different node is a collision — the exact silent
	// tid-interleaving hazard the registry exists to close.
	nodes  []int
	openBy map[int]bool // wids with an open session (named jobs)
	tenant *tenantEntry
}

type tenantEntry struct {
	name  string
	quota Quota

	jobs     int // open jobs
	inflight int // admitted, unfinished collectives
	slots    int // live per-tensor slot states across the merge shards

	// Cached per-tenant metrics (created once at registration, updated
	// lock-free afterwards).
	mAdmitted *obs.Counter
	mRejected *obs.Counter
	mOps      *obs.Gauge
	mJobs     *obs.Gauge
	mSlots    *obs.Gauge
}

// opEntry tracks one admitted collective until every merge-shard slot it
// opened has finished.
type opEntry struct {
	job    *jobEntry
	opened int // slots ever opened
	live   int // slots currently open
}

// NewRegistry creates a registry with the given tenancy policy,
// publishing per-tenant metrics into reg (obs.Default() is the usual
// choice; nil disables metrics). defaultWorkers is the worker count of
// the implicit namespace-0 job serving the legacy single-job API.
func NewRegistry(cfg Config, reg *obs.Registry, defaultWorkers int) *Registry {
	r := &Registry{
		cfg:      cfg,
		jobs:     make(map[uint32]*jobEntry),
		tenants:  make(map[string]*tenantEntry),
		ops:      make(map[uint32]*opEntry),
		rejected: make(map[uint32]uint8),
		obs:      reg,
	}
	// The legacy/default job is always open: namespace 0, identity
	// wid->node mapping learned from packet attribution.
	te := r.tenantLocked(DefaultTenant)
	j := &jobEntry{
		key:     JobKey{Tenant: DefaultTenant, Job: DefaultJob},
		ns:      0,
		workers: defaultWorkers,
		nodes:   unboundNodes(defaultWorkers),
		tenant:  te,
	}
	r.jobs[0] = j
	te.jobs++
	te.mJobs.Set(int64(te.jobs))
	return r
}

func unboundNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = -1
	}
	return nodes
}

// tenantLocked returns (creating if needed) the tenant entry; r.mu held.
func (r *Registry) tenantLocked(name string) *tenantEntry {
	te := r.tenants[name]
	if te != nil {
		return te
	}
	te = &tenantEntry{name: name, quota: r.cfg.QuotaFor(name)}
	if r.obs != nil {
		p := "tenant:" + name + ":"
		te.mAdmitted = r.obs.Counter(p + "ops_admitted")
		te.mRejected = r.obs.Counter(p + "ops_rejected")
		te.mOps = r.obs.Gauge(p + "ops_active")
		te.mJobs = r.obs.Gauge(p + "jobs_active")
		te.mSlots = r.obs.Gauge(p + "slots_active")
	} else {
		te.mAdmitted, te.mRejected = &obs.Counter{}, &obs.Counter{}
		te.mOps, te.mJobs, te.mSlots = &obs.Gauge{}, &obs.Gauge{}, &obs.Gauge{}
	}
	r.tenants[name] = te
	return te
}

// OpenJob admits (or refuses) a worker's job-open request. ns must be
// protocol.NamespaceOf(key) — the registry re-derives and checks it, so a
// worker cannot squat on another job's namespace. node is the sender's
// transport node, bound to wid for result routing and collision
// detection. Returns the wire reason code and matching typed error on
// refusal.
func (r *Registry) OpenJob(key JobKey, ns uint32, wid, workers, node int) (uint8, error) {
	if err := key.Validate(); err != nil {
		return ReasonForError(ErrAdmissionRejected), fmt.Errorf("%w: %v", ErrAdmissionRejected, err)
	}
	if want := protocol.NamespaceOf(key.Tenant, key.Job); ns != want {
		return ReasonForError(ErrAdmissionRejected),
			fmt.Errorf("%w: job %s claims namespace %d, derives %d", ErrAdmissionRejected, key, ns, want)
	}
	if workers <= 0 || wid < 0 || wid >= workers {
		return ReasonForError(ErrAdmissionRejected),
			fmt.Errorf("%w: job %s: invalid wid %d of %d workers", ErrAdmissionRejected, key, wid, workers)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return ReasonForError(ErrDraining), fmt.Errorf("%w: job %s refused", ErrDraining, key)
	}
	j := r.jobs[ns]
	if j != nil {
		if j.key != key {
			// Two distinct jobs hashing to one namespace: refuse the
			// newcomer instead of letting their tids interleave.
			return ReasonForError(ErrTidCollision),
				fmt.Errorf("%w: namespace %d already held by %s, wanted by %s", ErrTidCollision, ns, j.key, key)
		}
		if j.workers != workers {
			return ReasonForError(ErrAdmissionRejected),
				fmt.Errorf("%w: job %s opened with %d workers, reopened with %d", ErrAdmissionRejected, key, j.workers, workers)
		}
		if j.nodes[wid] >= 0 && j.nodes[wid] != node {
			return ReasonForError(ErrTidCollision),
				fmt.Errorf("%w: job %s wid %d bound to node %d, reopened from node %d", ErrTidCollision, key, wid, j.nodes[wid], node)
		}
		j.nodes[wid] = node
		j.openBy[wid] = true
		return 0, nil
	}
	te := r.tenantLocked(key.Tenant)
	if te.quota.MaxJobs > 0 && te.jobs >= te.quota.MaxJobs {
		te.mRejected.Inc()
		return ReasonForError(ErrTenantQuota),
			fmt.Errorf("%w: tenant %q at MaxJobs=%d", ErrTenantQuota, key.Tenant, te.quota.MaxJobs)
	}
	j = &jobEntry{
		key:     key,
		ns:      ns,
		workers: workers,
		nodes:   unboundNodes(workers),
		openBy:  make(map[int]bool),
		tenant:  te,
	}
	j.nodes[wid] = node
	j.openBy[wid] = true
	r.jobs[ns] = j
	te.jobs++
	te.mJobs.Set(int64(te.jobs))
	return 0, nil
}

// CloseJob releases one worker's session on a namespace; when the last
// worker closes, the job is deregistered, its namespace freed, and any
// straggling operation accounting purged (a crashed worker must not pin
// drain forever). Returns true when this call deregistered the job — the
// packet router uses that to retire the namespace's protocol machines,
// so a reincarnated job starting its tensor IDs over meets fresh state
// instead of the old session's finished-tensor archive. The default
// namespace is never deregistered.
func (r *Registry) CloseJob(ns uint32, wid int) bool {
	if ns == 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[ns]
	if j == nil || wid < 0 || wid >= j.workers {
		return false
	}
	delete(j.openBy, wid)
	if len(j.openBy) != 0 {
		return false
	}
	delete(r.jobs, ns)
	j.tenant.jobs--
	j.tenant.mJobs.Set(int64(j.tenant.jobs))
	for tid, op := range r.ops {
		if op.job == j {
			delete(r.ops, tid)
			r.liveSlot -= op.live
			j.tenant.slots -= op.live
			j.tenant.inflight--
		}
	}
	j.tenant.mOps.Set(int64(j.tenant.inflight))
	j.tenant.mSlots.Set(int64(j.tenant.slots))
	for tid := range r.rejected {
		if protocol.TidNamespace(tid) == ns {
			delete(r.rejected, tid)
		}
	}
	return true
}

// AdmitOp decides the fate of a (tensor ID, worker ID, sender node)
// triple the packet router has not seen before: the packet is either
// admitted (nil error) or refused with a wire reason and typed error.
// The first triple of a tensor ID admits the whole operation (quota and
// drain checks); later triples bind the op's remaining workers and catch
// collisions — a worker ID already bound to a different transport node
// means two collectives are sharing one tensor-ID space, the exact
// silent-interleave hazard the registry exists to close. Re-asking about
// a known triple is idempotent (the router's verdict cache may be
// pruned), never double-accounting the tenant.
func (r *Registry) AdmitOp(tid uint32, wid, from int) (uint8, error) {
	ns := protocol.TidNamespace(tid)
	r.mu.Lock()
	defer r.mu.Unlock()
	if reason, ok := r.rejected[tid]; ok {
		// A sibling worker's packet for an op already refused: repeat the
		// identical verdict so the whole job fails with one typed error.
		return reason, ErrorForReason(reason)
	}
	j := r.jobs[ns]
	if j == nil {
		return r.rejectLocked(nil, tid, ErrUnknownJob,
			fmt.Errorf("%w: tensor %#x in unopened namespace %d", ErrUnknownJob, tid, ns))
	}
	if wid < 0 || wid >= j.workers {
		if ns == 0 {
			// Legacy namespace: an out-of-range worker ID has always been
			// the merge machine's protocol error (it kills the aggregator
			// loudly); keep that contract rather than softening it into a
			// typed refusal the misconfigured sender may not understand.
			return 0, nil
		}
		return r.rejectLocked(j.tenant, tid, ErrAdmissionRejected,
			fmt.Errorf("%w: job %s: tensor %#x from out-of-range wid %d", ErrAdmissionRejected, j.key, tid, wid))
	}
	if bound := j.nodes[wid]; bound >= 0 && bound != from {
		// Same (namespace, wid) claimed from two transport nodes: two
		// collectives are colliding on one tensor-ID space. Pre-registry
		// these packets interleaved silently into one merge. The verdict is
		// NOT memoized per tid — only the intruding sender is refused; the
		// bound worker's packets for this tensor keep flowing.
		j.tenant.mRejected.Inc()
		return ReasonForError(ErrTidCollision),
			fmt.Errorf("%w: namespace %d wid %d bound to node %d, packet from node %d", ErrTidCollision, ns, wid, bound, from)
	}
	if r.ops[tid] != nil {
		// Known op: bind this (possibly late-arriving) worker and admit.
		j.nodes[wid] = from
		return 0, nil
	}
	if r.draining {
		return r.rejectLocked(j.tenant, tid, ErrDraining,
			fmt.Errorf("%w: tensor %#x refused", ErrDraining, tid))
	}
	te := j.tenant
	if te.quota.MaxInFlightOps > 0 && te.inflight >= te.quota.MaxInFlightOps {
		return r.rejectLocked(te, tid, ErrTenantQuota,
			fmt.Errorf("%w: tenant %q at MaxInFlightOps=%d", ErrTenantQuota, te.name, te.quota.MaxInFlightOps))
	}
	j.nodes[wid] = from
	r.ops[tid] = &opEntry{job: j}
	te.inflight++
	te.mAdmitted.Inc()
	te.mOps.Set(int64(te.inflight))
	return 0, nil
}

// rejectLocked records a refusal verdict for tid and returns it; r.mu
// held. Recording it lets every sibling worker's packets receive the
// same typed rejection instead of a confusing mix.
func (r *Registry) rejectLocked(te *tenantEntry, tid uint32, sentinel, err error) (uint8, error) {
	reason := ReasonForError(sentinel)
	if len(r.rejected) >= 1<<16 {
		// Bound the memo on a long-lived service. Losing old verdicts is
		// benign: re-deriving mostly reproduces them, and an op whose
		// workers straddle a pruning at worst splits into two typed
		// errors instead of one.
		clear(r.rejected)
	}
	r.rejected[tid] = reason
	if te != nil {
		te.mRejected.Inc()
	}
	return reason, err
}

// RejectedReason reports the recorded refusal for tid, if any.
func (r *Registry) RejectedReason(tid uint32) (uint8, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reason, ok := r.rejected[tid]
	return reason, ok
}

// SlotOpened records that a merge shard created per-tensor state for an
// admitted operation. Called from shard goroutines via the machine's
// lifecycle hooks. An unknown tid (its entry already completed while a
// reordered bootstrap straggled, or the op predates a registry restart)
// re-activates accounting against the owning namespace rather than going
// untracked — drain correctness depends on every live slot being
// counted.
func (r *Registry) SlotOpened(tid uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.ops[tid]
	if op == nil {
		j := r.jobs[protocol.TidNamespace(tid)]
		if j == nil {
			return
		}
		op = &opEntry{job: j}
		r.ops[tid] = op
		j.tenant.inflight++
		j.tenant.mOps.Set(int64(j.tenant.inflight))
	}
	op.opened++
	op.live++
	r.liveSlot++
	op.job.tenant.slots++
	op.job.tenant.mSlots.Set(int64(op.job.tenant.slots))
}

// SlotFinished records that a merge shard concluded per-tensor state.
// When the operation's last live slot finishes, the op completes and its
// tenant's in-flight count drops.
func (r *Registry) SlotFinished(tid uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.ops[tid]
	if op == nil {
		return
	}
	op.live--
	r.liveSlot--
	te := op.job.tenant
	te.slots--
	te.mSlots.Set(int64(te.slots))
	if op.live <= 0 {
		delete(r.ops, tid)
		te.inflight--
		te.mOps.Set(int64(te.inflight))
	}
}

// StartDrain flips the registry into drain mode: every subsequent
// OpenJob and AdmitOp is refused with ErrDraining while already-admitted
// operations run to completion.
func (r *Registry) StartDrain() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
}

// Draining reports whether StartDrain was called.
func (r *Registry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// ActiveOps reports the number of admitted, unfinished collectives.
func (r *Registry) ActiveOps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// LiveSlots reports the number of live per-tensor slot states across the
// merge shards (maintained through the machines' lifecycle hooks).
func (r *Registry) LiveSlots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveSlot
}

// NodeFor resolves a job-relative worker ID to its transport node for
// result routing. ok is false when the binding is unknown (default
// namespace before first contact), in which case callers fall back to
// the identity mapping.
func (r *Registry) NodeFor(tid uint32, wid int) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[protocol.TidNamespace(tid)]
	if j == nil || wid < 0 || wid >= len(j.nodes) || j.nodes[wid] < 0 {
		return 0, false
	}
	return j.nodes[wid], true
}

// WorkersOf reports the worker count of the job occupying ns (0 when the
// namespace is not open). Per-namespace machine instances size their
// WID-indexed state from it.
func (r *Registry) WorkersOf(ns uint32) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[ns]
	if j == nil {
		return 0
	}
	return j.workers
}

// MaxInFlightOf reports the in-flight operation cap of the tenant owning
// ns (0 when the namespace is not open or the tenant is uncapped).
// Per-namespace machine instances use it to presize their slot tables for
// the worst-case number of concurrently live tensors.
func (r *Registry) MaxInFlightOf(ns uint32) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[ns]
	if j == nil {
		return 0
	}
	return j.tenant.quota.MaxInFlightOps
}

// Weight reports the DRR weight of the tenant owning ns (1 when
// unknown).
func (r *Registry) Weight(ns uint32) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[ns]
	if j == nil {
		return 1
	}
	return j.tenant.quota.weight()
}

// TenantOf reports the tenant name owning ns ("" when not open).
func (r *Registry) TenantOf(ns uint32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[ns]
	if j == nil {
		return ""
	}
	return j.tenant.name
}

// Stats is a point-in-time per-tenant accounting snapshot, handed to the
// obs layer as the final word at drain time.
type Stats struct {
	Tenant   string
	Jobs     int
	Inflight int
	Admitted int64
	Rejected int64
}

// Snapshot returns per-tenant accounting, sorted by tenant name
// insertion-independently (callers sort if they need determinism).
func (r *Registry) Snapshot() []Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Stats, 0, len(r.tenants))
	for _, te := range r.tenants {
		out = append(out, Stats{
			Tenant:   te.name,
			Jobs:     te.jobs,
			Inflight: te.inflight,
			Admitted: te.mAdmitted.Load(),
			Rejected: te.mRejected.Load(),
		})
	}
	return out
}
