package core

import (
	"fmt"
	"sync"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Typed admission errors, re-exported from internal/tenant so callers
// can errors.Is against the core API surface alongside
// ErrOpBackpressure. A rejection raised on the aggregator crosses the
// wire as a control reason code and resurfaces as the same value here.
var (
	// ErrTenantQuota reports a per-tenant limit (MaxJobs or
	// MaxInFlightOps) was exceeded on the aggregator.
	ErrTenantQuota = tenant.ErrTenantQuota
	// ErrAdmissionRejected is the aggregator's generic admission refusal.
	ErrAdmissionRejected = tenant.ErrAdmissionRejected
	// ErrAggregatorDraining reports the aggregator is draining for a
	// rolling restart; callers should retry against a replacement.
	ErrAggregatorDraining = tenant.ErrDraining
	// ErrTidCollision reports a tensor-ID namespace collision detected by
	// the aggregator's registry.
	ErrTidCollision = tenant.ErrTidCollision
	// ErrUnknownJob reports an operation for a job never opened on the
	// aggregator.
	ErrUnknownJob = tenant.ErrUnknownJob
)

// openTimeout bounds a worker's OpenJob handshake with the aggregators.
const openTimeout = 5 * time.Second

// Job is an open session for one (tenant, job) identity on a worker's
// connection: a handle that mints the job's tensor IDs inside its own
// namespace and runs collectives against the shared aggregator fleet.
// Operations of different jobs on one connection share the worker's
// receive pump, free-listed driver states, and transport batching; only
// the protocol identity (namespace, job-relative worker ID, worker
// count) differs per job.
//
// Jobs are SPMD like workers: every member must open the same job with
// the same worker count and issue the same operations in the same order.
type Job struct {
	w   *Worker
	key tenant.JobKey
	ns  uint32
	wid int
	// pcfg is the job's protocol configuration: the worker's own with the
	// job's worker count substituted. Its Aggregators is nil: each op
	// routes by the list beginOpAt returns.
	pcfg protocol.Config

	mu     sync.Mutex
	seq    uint32
	closed bool
}

// Key returns the job's (tenant, job) identity.
func (j *Job) Key() tenant.JobKey { return j.key }

// Namespace returns the job's tensor-ID namespace.
func (j *Job) Namespace() uint32 { return j.ns }

// OpenJob opens a session for key (tenant, job) using the worker's own
// ID and worker count as the job-relative ones — the common case where
// the fabric is the job. See OpenJobAs for multiplexing differently
// shaped jobs over one fabric.
func (w *Worker) OpenJob(tenantName, jobName string) (*Job, error) {
	return w.OpenJobAs(tenantName, jobName, w.id, w.cfg.Workers)
}

// OpenJobAs opens a session for (tenant, job) in which this connection
// acts as job-relative worker wid of workers total. It performs the
// registration handshake with every aggregator: each must accept before
// any collective runs, so quota violations, namespace collisions, and
// draining aggregators surface here as typed errors (ErrTenantQuota,
// ErrTidCollision, ErrAggregatorDraining) rather than as mid-collective
// failures.
func (w *Worker) OpenJobAs(tenantName, jobName string, wid, workers int) (*Job, error) {
	key := tenant.JobKey{Tenant: tenantName, Job: jobName}
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 || wid < 0 || wid >= workers {
		return nil, fmt.Errorf("core: job %s: invalid wid %d of %d workers", key, wid, workers)
	}
	pcfg := w.job.pcfg
	pcfg.Workers = workers
	j := &Job{
		w:    w,
		key:  key,
		ns:   protocol.NamespaceOf(tenantName, jobName),
		wid:  wid,
		pcfg: pcfg,
	}
	if err := j.open(); err != nil {
		return nil, err
	}
	return j, nil
}

// ctrlTid is the job's control-channel tensor ID: sequence 0 of its
// namespace, which operation minting never uses.
func (j *Job) ctrlTid() uint32 { return protocol.TidFor(j.ns, 0) }

// open runs the JobOpen handshake: the request goes to every aggregator
// and each must answer Accept. On unreliable transports unacknowledged
// aggregators are re-asked every RetransmitTimeout (the request and its
// reply are idempotent); the whole handshake is bounded by openTimeout.
func (j *Job) open() error {
	w := j.w
	q, err := w.registerCtrl(j.ctrlTid())
	if err != nil {
		return fmt.Errorf("core: open job %s: %w", j.key, err)
	}
	defer w.unregisterCtrl(j.ctrlTid(), q)

	req := wire.ControlPacket{
		Type:     wire.TypeJobOpen,
		WID:      uint16(j.wid),
		TensorID: j.ctrlTid(),
		Workers:  uint16(j.pcfg.Workers),
		Tenant:   j.key.Tenant,
		Job:      j.key.Job,
	}
	buf := wire.AppendControl(nil, &req)
	aggs := w.aggregators()
	accepted := make(map[int]bool, len(aggs))
	send := func() error {
		for _, agg := range aggs {
			if accepted[agg] {
				continue
			}
			if err := w.conn.Send(agg, buf); err != nil {
				return fmt.Errorf("core: open job %s: send to aggregator %d: %w", j.key, agg, err)
			}
		}
		return nil
	}
	if err := send(); err != nil {
		return err
	}

	var resendCh <-chan time.Time
	if !w.cfg.Reliable {
		t := time.NewTicker(w.cfg.RetransmitTimeout)
		defer t.Stop()
		resendCh = t.C
	}
	deadline := time.NewTimer(openTimeout)
	defer deadline.Stop()

	for {
		select {
		case msg := <-q.ch:
			cp, derr := wire.DecodeControl(msg.Data)
			transport.PutBuf(msg.Data)
			if derr != nil {
				continue // stale or malformed; the resend loop re-asks
			}
			switch cp.Type {
			case wire.TypeJobAccept:
				accepted[msg.From] = true
				if len(accepted) == len(aggs) {
					return nil
				}
			case wire.TypeJobReject:
				rerr := tenant.ErrorForReason(cp.Reason)
				if rerr == nil {
					rerr = tenant.ErrAdmissionRejected
				}
				return fmt.Errorf("core: open job %s: aggregator %d: %w", j.key, msg.From, rerr)
			}
		case <-q.fail:
			return fmt.Errorf("core: open job %s: %w", j.key, ErrOpBackpressure)
		case <-w.closed:
			w.mu.Lock()
			err := w.recvErr
			w.mu.Unlock()
			return fmt.Errorf("core: open job %s: receive: %w", j.key, err)
		case <-resendCh:
			if err := send(); err != nil {
				return err
			}
		case <-deadline.C:
			return fmt.Errorf("core: open job %s: no answer from %d/%d aggregators within %v",
				j.key, len(aggs)-len(accepted), len(aggs), openTimeout)
		}
	}
}

// registerCtrl installs a control-channel queue for tid in the receive
// pump's routing table. Control channels bypass the opState free list —
// they carry a handful of packets per job lifetime and need no decode or
// encode state.
func (w *Worker) registerCtrl(tid uint32) (*opQueue, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.closed:
		return nil, fmt.Errorf("worker %d receive: %w", w.id, w.recvErr)
	default:
	}
	if w.ops[tid] != nil {
		return nil, fmt.Errorf("worker %d: job control channel %#x busy (job already opening or open)", w.id, tid)
	}
	q := newOpQueue(16, tid)
	w.ops[tid] = q
	return q, nil
}

// unregisterCtrl removes a control queue and recycles anything queued.
func (w *Worker) unregisterCtrl(tid uint32, q *opQueue) {
	w.mu.Lock()
	if w.ops[tid] == q {
		delete(w.ops, tid)
	}
	w.mu.Unlock()
	q.finish()
}

// beginOp mints the job's next tensor ID, checks out a driver state, and
// returns the operation's protocol configuration, routed by the current
// view.
func (j *Job) beginOp() (uint32, *opState, protocol.Config, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, nil, protocol.Config{}, fmt.Errorf("core: job %s: session closed", j.key)
	}
	if j.seq >= protocol.MaxTidSeq {
		j.mu.Unlock()
		return 0, nil, protocol.Config{}, fmt.Errorf("core: job %s exhausted its tensor-ID space; reopen the session", j.key)
	}
	j.seq++
	tid := protocol.TidFor(j.ns, j.seq)
	j.mu.Unlock()
	st, aggs, err := j.w.beginOpAt(tid)
	if err != nil {
		return 0, nil, protocol.Config{}, err
	}
	pcfg := j.pcfg
	pcfg.Aggregators = aggs
	return tid, st, pcfg, nil
}

// AllReduce sums data element-wise across the job's workers; on return,
// data holds the job-global sum. Typed admission errors (ErrTenantQuota,
// ErrAggregatorDraining, ...) surface when the aggregator refuses the
// operation.
func (j *Job) AllReduce(data []float32) error {
	p, err := j.AllReduceAsync(data)
	if err != nil {
		return err
	}
	return p.Wait()
}

// AllReduceAsync starts an AllReduce on the job and returns immediately;
// see Worker.AllReduceAsync for the overlap contract.
func (j *Job) AllReduceAsync(data []float32) (*Pending, error) {
	p := &Pending{done: make(chan struct{})}
	if len(data) == 0 {
		close(p.done)
		return p, nil
	}
	tid, st, pcfg, err := j.beginOp()
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(p.done)
		defer j.w.endOp(tid, st)
		p.err = j.w.runAllReduce(data, tid, st, pcfg, j.wid)
	}()
	return p, nil
}

// AllReduceSparse sums COO tensors across the job's workers (Algorithm
// 3); see Worker.AllReduceSparse.
func (j *Job) AllReduceSparse(in *tensor.COO) (*tensor.COO, error) {
	tid, st, pcfg, err := j.beginOp()
	if err != nil {
		return nil, err
	}
	defer j.w.endOp(tid, st)
	return j.w.runAllReduceSparse(in, tid, st, pcfg, j.wid)
}

// Close ends the session: a best-effort JobClose notice goes to every
// aggregator (the registry also reaps via drain), and further operations
// on the handle fail. In-flight operations are unaffected.
func (j *Job) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	req := wire.ControlPacket{
		Type:     wire.TypeJobClose,
		WID:      uint16(j.wid),
		TensorID: j.ctrlTid(),
		Tenant:   j.key.Tenant,
		Job:      j.key.Job,
	}
	buf := wire.AppendControl(nil, &req)
	for _, agg := range j.w.aggregators() {
		// Best effort: a closed transport or unreachable aggregator must
		// not fail session teardown.
		_ = j.w.conn.Send(agg, buf)
	}
	return nil
}
