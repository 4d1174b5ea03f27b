package core

import (
	"fmt"
	"sync"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Worker is one OmniReduce worker endpoint.
//
// Collectives are SPMD: every worker must issue the same operations in
// the same order. Operations may overlap: AllReduceAsync starts a
// collective and returns a Pending handle, allowing several tensors
// (e.g. DDP gradient buckets) in flight at once, exactly as the paper's
// PyTorch integration overlaps bucket aggregation with backpropagation.
// The blocking AllReduce is AllReduceAsync + Wait.
//
// The protocol logic lives in protocol.WorkerMachine (block format) and
// protocol.SparseWorkerMachine (key-value format); the Worker is their
// I/O driver: one loop per operation, the same for both formats (each
// machine is a protocol.WorkerOp), pumps transport messages and
// retransmission timeouts through the machine and transmits its emits.
type Worker struct {
	conn transport.Conn
	cfg  Config
	id   int

	mu       sync.Mutex
	ops      map[uint32]*opQueue
	closed   chan struct{}
	recvErr  error
	shutdown bool // Close ran; released states are freed, not recycled

	// job is the default job: namespace 0, the worker's own ID and worker
	// count. AllReduceAsync and AllReduceSparse run on it, and
	// TidFor(0, seq) == seq keeps its wire tensor IDs those of the
	// pre-namespace protocol.
	job Job

	// view is the current membership view (Epoch 0 = static legacy
	// membership, no epoch enforcement); guarded by mu.
	view protocol.View

	// free parks finished opStates for reuse; stateNew/stateReused tally
	// how often beginOpAt allocated fresh state vs recycled (see
	// OpStateStats). Steady state on a long-lived connection is one state
	// per concurrently in-flight collective, reused forever after.
	free        []*opState
	stateNew    int64
	stateReused int64

	// pump tallies the receive pump's routing decisions; see PumpSnapshot.
	pump pumpCounters

	// Stats totals the protocol counters of the worker's finished
	// operations; Stats.Snapshot returns them.
	Stats workerStats
}

// workerStats is a worker's running total of its machines' counters.
// Operations may overlap, so each adds its machine's under the lock as it
// ends (drive).
type workerStats struct {
	mu sync.Mutex
	s  protocol.WorkerStats
}

// Snapshot returns a copy of the counters.
func (c *workerStats) Snapshot() protocol.WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// NewWorker creates a worker bound to conn; conn.LocalID() must be in
// [0, cfg.Workers).
func NewWorker(conn transport.Conn, cfg Config) (*Worker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id := conn.LocalID()
	if id < 0 || id >= cfg.Workers {
		return nil, fmt.Errorf("core: worker id %d out of range [0,%d)", id, cfg.Workers)
	}
	w := &Worker{
		conn:   conn,
		cfg:    cfg,
		id:     id,
		ops:    make(map[uint32]*opQueue),
		closed: make(chan struct{}),
	}
	if cfg.View != nil {
		w.view = cfg.View.Clone()
		// cfg.Aggregators is the authoritative routing table; keep it in
		// lockstep with the view from the start.
		w.cfg.Aggregators = append([]int(nil), w.view.Aggregators...)
	}
	pcfg := w.cfg.Protocol()
	pcfg.Aggregators = nil // each op routes by the list beginOpAt returns
	w.job = Job{w: w, wid: id, pcfg: pcfg}
	go w.recvPump()
	if cfg.View != nil {
		// Bind the connection to the initial epoch on every aggregator.
		w.sendViewAck(w.view)
	}
	return w, nil
}

// recvPump routes inbound messages to the operation owning their tensor
// ID. Routing never blocks: delivery to an operation's queue is the
// non-blocking opQueue.deliver protocol, so a slow collective cannot
// stall the pump (and with it every other in-flight collective), and a
// message racing the operation's completion is recycled rather than
// stranded. Messages for unknown tensors (stale replays for finished
// operations) and malformed packets are dropped with their buffers
// returned to the pool.
func (w *Worker) recvPump() {
	for {
		m, err := w.conn.Recv()
		if err != nil {
			w.mu.Lock()
			w.recvErr = err
			close(w.closed)
			w.mu.Unlock()
			return
		}
		if t := wire.PeekType(m.Data); wire.IsViewType(t) {
			// View-plane traffic (announcements, stale-epoch refusals) is
			// connection-scoped, not operation-scoped: handle it on the
			// pump and notify in-flight operations through their queues.
			w.handleViewMsg(t, m)
			continue
		}
		tid, ok := peekTensorID(m.Data)
		if !ok {
			transport.PutBuf(m.Data)
			w.pump.badPackets.Add(1)
			obsPumpBad.Inc()
			continue
		}
		w.mu.Lock()
		q := w.ops[tid]
		w.mu.Unlock()
		if q == nil {
			// Operation finished; stale duplicate.
			transport.PutBuf(m.Data)
			w.pump.staleDrops.Add(1)
			obsPumpStale.Inc()
			obs.Emit(obs.EvStaleDrop, tid, int64(len(m.Data)))
			continue
		}
		q.deliver(m, w.cfg.Reliable, &w.pump)
	}
}

// PumpSnapshot returns the receive pump's routing counters.
func (w *Worker) PumpSnapshot() PumpStats { return w.pump.snapshot() }

// peekTensorID extracts the tensor ID without a full decode. Control
// packets carry their tensor ID at the sparse offset by design, so one
// rule routes the whole control plane: job lifecycle replies route to the
// job's control queue (namespace<<TidSeqBits, sequence 0) and per-op
// rejects route to the rejected operation itself.
func peekTensorID(buf []byte) (uint32, bool) {
	switch t := wire.PeekType(buf); {
	case t == wire.TypeData || t == wire.TypeResult:
		if len(buf) < 12 {
			return 0, false
		}
		return uint32(buf[8]) | uint32(buf[9])<<8 | uint32(buf[10])<<16 | uint32(buf[11])<<24, true
	case t == wire.TypeSparseData || t == wire.TypeSparseResult || wire.IsControlType(t):
		if len(buf) < 8 {
			return 0, false
		}
		return uint32(buf[4]) | uint32(buf[5])<<8 | uint32(buf[6])<<16 | uint32(buf[7])<<24, true
	default:
		return 0, false
	}
}

// beginOpAt checks out a driver state for an operation on tensor ID tid —
// recycled from the free list when one is parked there, freshly allocated
// only when every state is busy (more concurrent collectives in flight
// than the connection has ever seen). The free list is shared across all
// jobs on the connection: driver states carry no job identity beyond the
// queue's re-stamped tensor ID. It also returns the aggregator list the
// operation routes by, read under the lock maybeApplyView writes it under.
func (w *Worker) beginOpAt(tid uint32) (*opState, []int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.closed:
		return nil, nil, fmt.Errorf("core: worker %d receive: %w", w.id, w.recvErr)
	default:
	}
	if w.ops[tid] != nil {
		return nil, nil, fmt.Errorf("core: worker %d: tensor %#x already in flight", w.id, tid)
	}
	var st *opState
	if n := len(w.free); n > 0 {
		st = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		st.q.reset(tid)
		w.stateReused++
		obsOpStateReused.Inc()
	} else {
		st = w.newOpState(tid)
		w.stateNew++
		obsOpStateNew.Inc()
	}
	w.ops[tid] = st.q
	obsOpsStarted.Inc()
	obs.Emit(obs.EvOpBegin, tid, 0)
	return st, w.cfg.Aggregators, nil
}

// aggregators returns the current routing table. maybeApplyView swaps in
// a fresh slice rather than writing into the old one, so the caller may
// keep what it gets.
func (w *Worker) aggregators() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cfg.Aggregators
}

// endOp unregisters the operation, recycles any message still queued (or
// concurrently being delivered) for it, and parks the driver state for
// reuse — or releases it if the worker has shut down meanwhile.
func (w *Worker) endOp(tid uint32, st *opState) {
	w.mu.Lock()
	delete(w.ops, tid)
	w.mu.Unlock()
	// Quiesce the queue before the state becomes claimable again: after
	// finish, no pooled buffer remains in (or can enter) the channel.
	st.q.finish()
	w.mu.Lock()
	if w.shutdown {
		w.mu.Unlock()
		st.release()
	} else {
		w.free = append(w.free, st)
		w.mu.Unlock()
	}
	obsOpsDone.Inc()
	obs.Emit(obs.EvOpEnd, tid, 0)
}

// LocalAddr returns the transport's bound address when it has one
// (":0"-style setups discover real ports through it), or "".
func (w *Worker) LocalAddr() string {
	type addresser interface{ Addr() string }
	if ad, ok := w.conn.(addresser); ok {
		return ad.Addr()
	}
	return ""
}

// OpStateStats reports how many per-operation driver states were freshly
// allocated vs recycled from the free list. On a long-lived connection
// created should stop growing after the first few collectives.
func (w *Worker) OpStateStats() (created, reused int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stateNew, w.stateReused
}

// Pending is an in-flight collective started by AllReduceAsync.
type Pending struct {
	done chan struct{}
	err  error
}

// Wait blocks until the collective completes and returns its error.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// AllReduce sums data element-wise across all workers; on return, data
// holds the global sum on every worker. Every worker must call AllReduce
// with equal-length inputs.
func (w *Worker) AllReduce(data []float32) error {
	p, err := w.AllReduceAsync(data)
	if err != nil {
		return err
	}
	return p.Wait()
}

// AllReduceAsync starts an AllReduce and returns immediately; data must
// not be touched until the returned handle's Wait returns, at which point
// it holds the global sum. Multiple operations may be in flight at once
// (gradient-bucket pipelining); all workers must start the same
// operations in the same order.
func (w *Worker) AllReduceAsync(data []float32) (*Pending, error) {
	return w.job.AllReduceAsync(data)
}

// runAllReduce runs one dense collective: it builds and starts a
// protocol.WorkerMachine over data and hands it to the driver loop. pcfg
// and wid are the operation's job parameters — the default job's are the
// worker's own, a named job session substitutes its job-relative worker ID
// and worker count.
func (w *Worker) runAllReduce(data []float32, tid uint32, st *opState, pcfg protocol.Config, wid int) error {
	// The clock starts before the view is built: NewDenseView runs the
	// bitmap scan, which is part of what the caller waits for.
	start := time.Now()
	m := protocol.GetWorkerMachine(pcfg, wid, tid)
	defer m.Recycle()
	view := protocol.NewDenseView(data, w.cfg.BlockSize, w.cfg.ForceDense)
	// The machine's clock shares the op clock's origin, so the first
	// packets are stamped with the time the scan took, not zero.
	st.eb.Reset()
	m.Start(view, time.Since(start), &st.eb)
	return w.drive(m, tid, st, start)
}

// drive runs a started collective to completion, whatever its format: it
// transmits the machine's emits (Start's are already in st.eb), pumps
// transport messages and retransmission timeouts through it, and turns a
// silent stall into a postmortem. start is the op clock's origin.
func (w *Worker) drive(m protocol.WorkerOp, tid uint32, st *opState, start time.Time) error {
	defer func() { obsOpLatency.Observe(int64(time.Since(start))) }()

	// The persistent opState carries the decode state, transmit batch and
	// inbound queue across collectives: every inbound result decodes into
	// the same packet shell, as a view of its message buffer (the machine
	// copies what it keeps during HandlePacket), and every emit encodes
	// into a pooled buffer, so the steady-state datapath stops allocating
	// once the state is warm.
	q := st.q

	// The worker's counters take the operation's as it ends, error exits
	// included.
	defer func() {
		ms := m.Stats()
		w.Stats.mu.Lock()
		w.Stats.s.Add(ms)
		w.Stats.mu.Unlock()
		obs.Emit(obs.EvBlockSent, tid, ms.BlocksSent)
	}()

	// Retransmission timer (Algorithm 2): one wakeup, armed at the
	// machine's earliest deadline and moved only when that deadline comes
	// earlier than the pending wakeup, which is the simulator's rule. A
	// deadline that moves later is met by a harmless early wakeup
	// (HandleTimeout re-checks every stream), so a fresh packet costs no
	// Reset. Reliable machines and the key-value path publish no deadline.
	var armedAt time.Duration
	armed := false
	arm := func() {
		d, ok := m.NextTimeout()
		if !ok || armed && armedAt <= d {
			return
		}
		armedAt, armed = d, true
		st.rt.Reset(d - time.Since(start))
	}
	defer st.rt.Stop()

	// The machine appends its emits to the opState's reusable EmitBuf; the
	// Emit contract requires consuming them before the next machine call,
	// which dispatch satisfies (sendEmits encodes everything before
	// returning). It also re-arms the retransmission timer, whose deadline
	// may have moved.
	dispatch := func() error {
		arm()
		return st.tx.sendEmits(w.conn, st.eb.Emits())
	}
	if err := dispatch(); err != nil {
		return err
	}

	// Stall watchdog: progress means aggregator results arriving. The
	// timer fires once per StallTimeout; a period with no new results
	// wedges the operation into a postmortem instead of a silent hang —
	// unless a view change just rebound the operation (failover handoff),
	// which makes one silent period expected rather than pathological.
	var watchdogCh <-chan time.Time
	var lastResults int64
	graceArmed := false // one watchdog period of grace after a rebind
	if w.cfg.StallTimeout > 0 {
		watchdog := time.NewTicker(w.cfg.StallTimeout)
		defer watchdog.Stop()
		watchdogCh = watchdog.C
	}

	// handle decodes one inbound message as a view of its buffer and runs
	// it through the machine, which refuses a format or direction it does
	// not read; it releases the buffer as soon as the machine is done with
	// the views into it, before the emits are encoded, and transmits what
	// the machine answered.
	handle := func(msg transport.Message) error {
		obs.Emit(obs.EvPacketRecvd, tid, int64(len(msg.Data)))
		st.eb.Reset()
		pm, err := st.dec.decode(msg.Data)
		if err == nil {
			err = m.HandleMsg(pm, time.Since(start), &st.eb)
		} else {
			err = refused(msg.Data, err)
		}
		transport.PutBuf(msg.Data)
		if err != nil {
			return fmt.Errorf("core: worker %d tensor %#x: %w", w.id, tid, err)
		}
		return dispatch()
	}

	for !m.Done() {
		// A result already queued is taken without entering the seven-case
		// select below. Results are what a collective mostly waits for and
		// there are finitely many of them, so the other cases are looked
		// at again as soon as the queue runs dry.
		select {
		case msg := <-q.ch:
			if err := handle(msg); err != nil {
				return err
			}
			continue
		default:
		}
		select {
		case v := <-q.viewCh:
			// Membership changed mid-collective: re-resolve every
			// stream's aggregator and (unreliable mode) replay the
			// outstanding packets to the new owners. Key-value ops have
			// no failover and ignore the view, but take the grace period.
			st.eb.Reset()
			m.Rebind(v.Aggregators, time.Since(start), &st.eb)
			if err := dispatch(); err != nil {
				return err
			}
			graceArmed = true
		case msg := <-q.ch:
			if err := handle(msg); err != nil {
				return err
			}
		case <-q.fail:
			return fmt.Errorf("core: worker %d tensor %d: %w", w.id, tid, ErrOpBackpressure)
		case <-w.closed:
			w.mu.Lock()
			err := w.recvErr
			w.mu.Unlock()
			return fmt.Errorf("core: worker %d receive: %w", w.id, err)
		case <-st.rt.C:
			armed = false
			st.eb.Reset()
			err := m.HandleTimeout(time.Since(start), &st.eb)
			// Transmit the resends accumulated before any MaxRetries
			// failure, then surface the error.
			if derr := dispatch(); derr != nil {
				return derr
			}
			if err != nil {
				return err
			}
		case <-watchdogCh:
			if got := m.Stats().ResultsRecvd; got > lastResults {
				lastResults = got
				continue
			}
			if graceArmed {
				graceArmed = false
				obsWatchdogSuppressed.Inc()
				continue
			}
			return w.capturePostmortem(tid, m.Stats(), w.cfg.StallTimeout)
		}
	}
	return nil
}

// Broadcast distributes root's data to every worker: non-root inputs are
// cleared and the AllReduce sum reproduces root's tensor everywhere (§7).
func (w *Worker) Broadcast(data []float32, root int) error {
	if w.id != root {
		clear(data)
	}
	return w.AllReduce(data)
}

// AllGather concatenates each worker's segment into out on every worker.
// out must have len(segment)*Workers elements; the local segment is placed
// at offset id*len(segment). AllGather is AllReduce with disjoint non-zero
// ranges (§7), so only each worker's own segment is transmitted.
func (w *Worker) AllGather(segment, out []float32) error {
	n := len(segment)
	if len(out) != n*w.cfg.Workers {
		return fmt.Errorf("core: AllGather output length %d != %d", len(out), n*w.cfg.Workers)
	}
	clear(out)
	copy(out[w.id*n:], segment)
	return w.AllReduce(out)
}

// Close shuts down the worker's transport endpoint; in-flight operations
// fail with a receive error. Parked driver states are released (their
// decode states go back to the pool, balancing the leak audit); states
// still owned by in-flight operations are released by their endOp.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.shutdown = true
	free := w.free
	w.free = nil
	w.mu.Unlock()
	for _, st := range free {
		st.release()
	}
	return w.conn.Close()
}
