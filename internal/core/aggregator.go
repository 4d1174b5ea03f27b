package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Aggregator is one aggregator node of the multi-tenant collective
// service: a long-lived process that concurrently serves many jobs from
// many tenants, each in its own tensor-ID namespace. Create with
// NewAggregator and drive with Run.
//
// The aggregation logic lives in protocol.AggregatorMachine — one
// instance per (shard, namespace), since jobs differ in worker count —
// and the Aggregator is the I/O and policy driver around them:
//
//   - A tenant.Registry makes every admission decision: job opens
//     (quotas, namespace collisions), first packets of new collectives
//     (per-tenant in-flight caps, drain refusals), and worker-to-node
//     bindings for result routing and collision detection. Refusals are
//     answered with typed control packets, so workers fail with
//     ErrTenantQuota / ErrAggregatorDraining / ErrTidCollision instead
//     of timing out.
//   - Run partitions the slot space across Config.AggShards shard
//     goroutines (one is a valid count). Each shard is fed through a
//     deficit-round-robin scheduler keyed by namespace, so a tenant
//     flooding the aggregator gets at most its weighted share of merge
//     time and quiet tenants' latency stays bounded.
//   - Drain stops admissions and waits for in-flight rounds to finish —
//     the graceful half of a rolling restart.
//
// Dense packets route to shards by slot and sparse packets by tensor ID,
// exactly the keys the machine partitions its own state by, so shards
// never share protocol state and per-slot packet order is preserved. The
// machines stay pure; only the driver knows about goroutines.
type Aggregator struct {
	conn transport.Conn
	cfg  Config
	reg  *tenant.Registry

	// gate is the admission filter run by the router, the single
	// Recv-consumer thread.
	gate admitGate

	// shardsMu guards shards, which Drain polls for queued work while
	// Run owns it.
	shardsMu sync.Mutex
	shards   []*aggShard

	// Elastic membership (see failover.go). viewMu guards view, standby,
	// restoreFrom and shadows; enforce is the datapath's lock-free "is epoch
	// enforcement on" check (flips on at most once, never off). The
	// gate's epoch bindings live on the gate itself: they are touched
	// only by the Recv-consumer thread.
	viewMu      sync.Mutex
	view        protocol.View
	standby     bool
	restoreFrom int // primary replaced at activation (-1 = none recorded)
	shadows     map[shadowKey]*protocol.AggregatorMachine
	enforce     atomic.Bool

	// Stats is the field-wise sum of every shard machine's counters,
	// folded once when Run returns; read it only after that.
	Stats AggStats
}

// AggStats counts aggregator-side protocol activity (see
// protocol.AggStats). Aggregator.Stats is the field-wise sum across shard
// machines, which equals a single machine's totals because every counter
// is attributable to one slot or tensor.
type AggStats = protocol.AggStats

// NewAggregator returns an aggregator bound to conn.
func NewAggregator(conn transport.Conn, cfg Config) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var tcfg tenant.Config
	if cfg.Tenancy != nil {
		tcfg = *cfg.Tenancy
	}
	a := &Aggregator{
		conn: conn,
		cfg:  cfg,
		reg:  tenant.NewRegistry(tcfg, obs.Default, cfg.Workers),
	}
	a.gate = admitGate{a: a, verdicts: make(map[admitKey]uint8), gens: make(map[uint32]uint32), bound: make(map[int]uint32)}
	if cfg.View != nil {
		a.view = cfg.View.Clone()
		obsAggViewEpoch.Set(int64(a.view.Epoch))
	}
	a.standby = cfg.Standby
	a.restoreFrom = -1
	// Epoch enforcement arms when the node participates in dynamic
	// membership: a standby refuses all data until activated, and a
	// primary with a real (non-zero) epoch refuses connections that have
	// not acknowledged it. View-less aggregators never enforce — the
	// legacy datapath is untouched.
	if cfg.Standby || (cfg.View != nil && cfg.View.Epoch > 0) {
		a.enforce.Store(true)
	}
	return a, nil
}

// Registry exposes the aggregator's job registry (admission state,
// per-tenant accounting) for inspection and tests.
func (a *Aggregator) Registry() *tenant.Registry { return a.reg }

// resolveDst maps a machine-emitted destination (a job-relative worker
// ID) to the transport node that worker registered from. The default
// namespace keeps the historic identity mapping — its workers never
// register, their worker IDs are their node IDs.
func (a *Aggregator) resolveDst(tid uint32, dst int) int {
	if protocol.TidNamespace(tid) == 0 {
		return dst
	}
	if node, ok := a.reg.NodeFor(tid, dst); ok {
		return node
	}
	return dst
}

// machineSet lazily instantiates one AggregatorMachine per tensor-ID
// namespace: jobs differ in worker count, and the machine sizes its
// per-worker state from its config. Namespace 0 uses the aggregator's
// own configured worker count, exactly the pre-tenancy behavior. Every
// machine's lifecycle hooks feed the registry's in-flight accounting.
type machineSet struct {
	base    protocol.Config
	localID int
	reg     *tenant.Registry
	ms      map[uint32]*protocol.AggregatorMachine
	gens    map[uint32]uint32 // registration generation each machine was built under
	retired AggStats          // counters folded out of retired machines

	// shard is this set's shard index; restore, when non-nil, is
	// consulted once per freshly built machine so an activated standby
	// resumes from the results the dead primary mirrored to it instead of
	// a blank slate (see Aggregator.adoptShadow).
	shard   int
	restore func(m *protocol.AggregatorMachine, shard int, ns uint32)
}

func newMachineSet(base protocol.Config, localID int, reg *tenant.Registry) machineSet {
	return machineSet{
		base: base, localID: localID, reg: reg,
		ms:   make(map[uint32]*protocol.AggregatorMachine),
		gens: make(map[uint32]uint32),
	}
}

// machineFor returns the machine owning tid's namespace, creating it on
// first contact. gen is the namespace's registration generation as
// stamped by the admission gate: a job that closed and reopened restarts
// its tensor-ID sequence, so a machine surviving from the previous
// session would answer the new session's reused tensor IDs out of its
// finished-tensor archive. A generation mismatch therefore retires the
// old machine (keeping its counters) and builds a fresh one. Returns nil
// when the namespace is not (or no longer) registered — the admission
// gate refuses unknown namespaces up front, so this only catches packets
// straggling behind a job close.
func (s *machineSet) machineFor(tid uint32, gen uint32) *protocol.AggregatorMachine {
	ns := protocol.TidNamespace(tid)
	if m := s.ms[ns]; m != nil {
		if s.gens[ns] == gen {
			return m
		}
		s.retired.Add(m.Stats())
		m.Release() // return live slot state, balancing the pool audit
		delete(s.ms, ns)
	}
	cfg := s.base
	inFlight := 0
	if ns != 0 {
		w := s.reg.WorkersOf(ns)
		if w <= 0 {
			return nil
		}
		cfg.Workers = w
		inFlight = s.reg.MaxInFlightOf(ns)
	}
	m := protocol.NewAggregatorMachine(cfg, s.localID)
	// Presize the slot table: one bucket per stream slot, each deep
	// enough for the tenant's in-flight operation window (default 4 when
	// uncapped) so steady-state admission never grows it.
	if inFlight <= 0 {
		inFlight = 4
	}
	m.Presize(cfg.WithDefaults().Streams, inFlight)
	m.SlotOpened = s.reg.SlotOpened
	m.SlotFinished = s.reg.SlotFinished
	// Restore after the hooks are set: adopted open slots must reach the
	// registry's in-flight accounting through SlotOpened.
	if s.restore != nil {
		s.restore(m, s.shard, ns)
	}
	s.ms[ns] = m
	s.gens[ns] = gen
	return m
}

// release retires every machine in the set, returning slot state to the
// protocol pools (leak-audit balance) and folding counters into retired.
func (s *machineSet) release() {
	for ns, m := range s.ms {
		s.retired.Add(m.Stats())
		m.Release()
		delete(s.ms, ns)
	}
}

// fold accumulates every machine's counters (live and retired) into sum.
func (s *machineSet) fold(sum *AggStats) {
	sum.Add(s.retired)
	for _, m := range s.ms {
		sum.Add(m.Stats())
	}
}

// handleMsg decodes one message as a view of its buffer (dec's shells
// point into msg.Data), feeds the packet to its namespace's machine (built
// or rebuilt for registration generation gen), which appends its emits to
// eb (reset here), and only then releases the buffer to the transport
// pool: the machine has copied what it keeps by the time HandlePacket
// returns, and nothing decoded is looked at afterwards. The buffer is
// released on every path, decode errors included. The emits reference the
// machine's reusable shells; the caller must consume them before the next
// handleMsg on the same machine set (sendEmits encodes them immediately).
func handleMsg(ms *machineSet, dec *decodeState, eb *protocol.EmitBuf, msg transport.Message, gen uint32) error {
	defer transport.PutBuf(msg.Data)
	eb.Reset()
	n := int64(len(msg.Data))
	obsAggPackets.Inc()
	obsAggRxSize.Observe(n)
	pm, err := dec.decode(msg.Data)
	if err != nil {
		return fmt.Errorf("core: aggregator: %w", err)
	}
	tid, _ := peekTensorID(msg.Data)
	m := ms.machineFor(tid, gen)
	if m == nil {
		// The job closed with packets still queued behind the gate; too
		// late to serve, nothing to corrupt.
		obsAggLateDrops.Inc()
		return nil
	}
	if obs.Enabled() {
		obs.Emit(obs.EvPacketRecvd, tid, n)
		before := m.Stats().BlocksAggregated
		err := m.HandlePacket(pm, eb)
		if after := m.Stats().BlocksAggregated; after > before {
			obs.Emit(obs.EvBlockRecvd, tid, after-before)
		}
		return err
	}
	return m.HandlePacket(pm, eb)
}

// admitGate is the admission filter in front of the merge path, run by
// the router, the single thread that consumes Recv — so every admission
// decision is serialized without any datapath locking. It owns the
// control plane: job opens and closes are answered here, and every
// (tensor ID, worker ID, sender) triple the router has not seen is ruled
// on by the registry. Keying verdicts on
// the full triple (not the tensor ID alone) is what catches a second
// cluster squatting on an already-ruled tensor ID from a different node
// — with a tid-only cache its packets would ride the first cluster's
// admission straight into the merge. Steady-state cost per packet is one
// map probe.
type admitGate struct {
	a        *Aggregator
	verdicts map[admitKey]uint8 // wire reason; 0 = admitted
	gens     map[uint32]uint32  // namespace registration generations (bumped on job deregistration)
	bound    map[int]uint32     // per-connection acked view epoch (TypeViewAck), gate-thread only
	ctrlBuf  []byte             // reusable control-reply encode buffer
	dec      decodeState        // decodes mirrored results (standbys only)
}

// admitKey identifies one ruled-on packet source: the operation, the
// job-relative worker claiming it, and the transport node it came from.
type admitKey struct {
	tid  uint32
	wid  uint16
	from int
}

// filter inspects one inbound message. It returns forward=true when the
// message should proceed to the merge path; otherwise the message was
// consumed here (control traffic, rejected operations) and its buffer
// recycled. A transport error sending a refusal propagates so Run can
// wind down.
func (g *admitGate) filter(m transport.Message) (bool, error) {
	t := wire.PeekType(m.Data)
	if wire.IsViewType(t) {
		// Membership traffic: epoch acks, view announcements, checkpoint
		// frames. Consumed here, on the thread that owns the bindings.
		return false, g.viewMsg(t, m)
	}
	if !wire.IsControlType(t) {
		if t != wire.TypeData && t != wire.TypeSparseData {
			// Results and unknown types fall through to the merge path,
			// which reports them exactly as before tenancy existed.
			return true, nil
		}
		tid, ok := peekTensorID(m.Data)
		if !ok {
			return true, nil // undecodable; the merge path raises the error
		}
		if g.a.enforce.Load() && g.bound[m.From] != g.a.curEpoch() {
			// The connection has not acknowledged the current view (it is
			// bound to an older epoch, or this node is an unactivated
			// standby). Typed refusal carrying the current view — never a
			// silent drop — so the sender can rebind and replay.
			from := m.From
			transport.PutBuf(m.Data)
			return false, g.refuseStaleEpoch(from, tid)
		}
		wid, _ := wire.PeekWID(m.Data)
		key := admitKey{tid: tid, wid: wid, from: m.From}
		reason, known := g.verdicts[key]
		if !known {
			var err error
			reason, err = g.a.reg.AdmitOp(tid, int(wid), m.From)
			if err != nil {
				obsAggOpsRejected.Inc()
			} else {
				obsAggOpsAdmitted.Inc()
			}
			if len(g.verdicts) >= 1<<16 {
				// Bound the memo on a long-lived service; AdmitOp is
				// idempotent for known triples so re-deriving is safe.
				clear(g.verdicts)
			}
			g.verdicts[key] = reason
		}
		if reason == wire.ReasonNone {
			return true, nil
		}
		// Refused: answer the sender with the op's own tensor ID so the
		// worker-side pump routes the refusal to the waiting operation.
		from := m.From
		transport.PutBuf(m.Data)
		return false, g.sendControl(from, &wire.ControlPacket{
			Type:     wire.TypeOpReject,
			Reason:   reason,
			TensorID: tid,
		})
	}

	obsAggCtrlPackets.Inc()
	cp, err := wire.DecodeControl(m.Data)
	from := m.From
	transport.PutBuf(m.Data)
	if err != nil {
		return false, nil
	}
	switch cp.Type {
	case wire.TypeJobOpen:
		key := tenant.JobKey{Tenant: cp.Tenant, Job: cp.Job}
		ns := protocol.TidNamespace(cp.TensorID)
		reason, oerr := g.a.reg.OpenJob(key, ns, int(cp.WID), int(cp.Workers), from)
		reply := &wire.ControlPacket{Type: wire.TypeJobAccept, TensorID: cp.TensorID}
		if oerr != nil {
			reply.Type = wire.TypeJobReject
			reply.Reason = reason
		}
		return false, g.sendControl(from, reply)
	case wire.TypeJobClose:
		ns := protocol.TidNamespace(cp.TensorID)
		if g.a.reg.CloseJob(ns, int(cp.WID)) {
			g.retire(ns)
		}
		return false, nil
	default:
		// Accept/Reject/OpReject are worker-bound; arriving here they are
		// stray reflections and are dropped.
		return false, nil
	}
}

// retire records that ns's job fully deregistered. The next registration
// of the namespace is a new generation — machines built for the old
// session get rebuilt on first contact (see machineSet.machineFor) — and
// cached verdicts for the namespace's tensor IDs are forgotten, since a
// reincarnated job reuses tensor IDs and must not inherit the old
// session's admissions or refusals.
func (g *admitGate) retire(ns uint32) {
	g.gens[ns]++
	for k := range g.verdicts {
		if protocol.TidNamespace(k.tid) == ns {
			delete(g.verdicts, k)
		}
	}
}

// sendControl encodes and transmits one control packet, reusing the
// gate's buffer.
func (g *admitGate) sendControl(to int, cp *wire.ControlPacket) error {
	g.ctrlBuf = wire.AppendControl(g.ctrlBuf[:0], cp)
	if cp.Type == wire.TypeOpReject || cp.Type == wire.TypeJobReject {
		obsAggRejectsSent.Inc()
	}
	return g.a.conn.Send(to, g.ctrlBuf)
}

// aggShard is one slot-partition of a sharded aggregator: its own
// machines (one per namespace), decode state, and transmit batch, fed in
// per-flow FIFO order through a deficit-round-robin scheduler. Nothing
// here is shared with other shards.
type aggShard struct {
	conn transport.Conn
	ms   machineSet
	in   *tenant.DRR[shardItem]
	dec  decodeState
	eb   protocol.EmitBuf
	tx   txBatch
	err  error

	// mirror, when non-nil, sends the results a machine step committed to
	// the standbys before the step's emits transmit
	// (Aggregator.mirrorCommits).
	mirror func(tx *txBatch, conn transport.Conn, emits []protocol.Emit, shard int)
}

// shardItem is one scheduled unit of shard work: the encoded message
// plus the registration generation of its namespace at routing time. The
// generation travels with the packet because the gate (router thread)
// owns generation state while machines live on shard goroutines; per-
// flow FIFO order makes the stamp monotonic per (shard, namespace).
type shardItem struct {
	m   transport.Message
	gen uint32
}

// run drains the shard's scheduler until it closes. After a protocol
// error the shard keeps draining (discarding messages, recycling their
// buffers) so the router never blocks on a dead shard; fail lets the
// router learn about the failure promptly.
func (s *aggShard) run(fail func()) {
	// Machines retire when the shard exits; stats stay readable through
	// the retired fold (Run folds after the shards join).
	defer s.ms.release()
	for {
		it, ok := s.in.Pop()
		if !ok {
			return
		}
		if s.err != nil {
			transport.PutBuf(it.m.Data)
			continue
		}
		err := handleMsg(&s.ms, &s.dec, &s.eb, it.m, it.gen)
		if err == nil {
			if s.mirror != nil {
				s.mirror(&s.tx, s.conn, s.eb.Emits(), s.ms.shard)
			}
			err = s.tx.sendEmits(s.conn, s.eb.Emits())
		}
		if err != nil {
			s.err = err
			fail()
		}
	}
}

// shardOf routes an encoded message to its shard: dense packets by slot,
// sparse packets by tensor ID — the keys the machine partitions all of
// its state by. Unparseable messages go to shard 0, whose decode error
// surfaces through Run.
func shardOf(data []byte, n int) int {
	switch wire.PeekType(data) {
	case wire.TypeData:
		if slot, ok := wire.PeekSlot(data); ok {
			return int(slot) % n
		}
	case wire.TypeSparseData:
		if tid, ok := peekTensorID(data); ok {
			return int(tid) % n
		}
	}
	return 0
}

// schedFlowCap bounds each (shard, namespace) queue. Sized like the
// previous per-shard channel: deep enough to ride out a merge burst,
// shallow enough that a stuck shard surfaces as stalls (reliable) or
// drops (unreliable) rather than unbounded memory.
const schedFlowCap = 64

// Run processes packets until the connection closes. It returns nil on
// orderly shutdown (transport.ErrClosed) and the underlying error
// otherwise. A close racing with an in-flight reply (the connection went
// away between receiving a packet and transmitting its response) is also
// orderly shutdown.
//
// Config.AggShards shard goroutines own the machines, a router loop feeds
// them through per-namespace DRR schedulers, and their stats fold into
// Stats on exit. Per-(job, slot) FIFO order is preserved because the
// route is a pure function of (namespace, slot), flows are FIFO, and each
// shard processes its scheduler serially.
func (a *Aggregator) Run() error {
	defer a.releaseShadows()
	n := a.cfg.AggShards
	shards := make([]*aggShard, n)
	proto := a.cfg.Protocol()
	for i := range shards {
		shards[i] = &aggShard{
			conn: a.conn,
			ms:   newMachineSet(proto, a.conn.LocalID(), a.reg),
			in:   tenant.NewDRR[shardItem](0, schedFlowCap, a.reg.Weight),
		}
		shards[i].ms.shard = i
		shards[i].ms.restore = a.adoptShadow
		if len(a.cfg.CheckpointPeers) > 0 {
			shards[i].mirror = a.mirrorCommits
		}
		shards[i].tx = txBatch{observe: observeAggTx, flushFull: obsAggFlushFull, flushEnd: obsAggFlushEnd, resolve: a.resolveDst}
	}
	a.shardsMu.Lock()
	a.shards = shards
	a.shardsMu.Unlock()
	defer func() {
		a.shardsMu.Lock()
		a.shards = nil
		a.shardsMu.Unlock()
	}()

	var wg sync.WaitGroup
	failed := make(chan struct{})
	var failOnce sync.Once
	fail := func() { failOnce.Do(func() { close(failed) }) }
	for _, s := range shards {
		wg.Add(1)
		go func(s *aggShard) { defer wg.Done(); s.run(fail) }(s)
	}

	// A receive pump decouples the blocking Recv from the router so the
	// router can react to a shard failure while no packet is arriving. If
	// the router exits first (shard failure), the pump drains until the
	// connection closes — Run's contract already requires the caller to
	// close the conn when done with the aggregator.
	type recvResult struct {
		m   transport.Message
		err error
	}
	recvCh := make(chan recvResult)
	routerDone := make(chan struct{})
	go func() {
		for {
			m, err := a.conn.Recv()
			select {
			case recvCh <- recvResult{m, err}:
				if err != nil {
					return
				}
			case <-routerDone:
				transport.PutBuf(m.Data)
				if err != nil {
					return
				}
			}
		}
	}()

	var recvErr error
	var gateErr error
router:
	for {
		select {
		case <-failed:
			break router
		case r := <-recvCh:
			if r.err != nil {
				recvErr = r.err
				break router
			}
			forward, err := a.gate.filter(r.m)
			if err != nil {
				gateErr = err
				break router
			}
			if !forward {
				continue
			}
			tid, _ := peekTensorID(r.m.Data)
			ns := protocol.TidNamespace(tid)
			it := shardItem{m: r.m, gen: a.gate.gens[ns]}
			sh := shards[shardOf(r.m.Data, n)]
			if sh.in.Push(ns, it, len(r.m.Data)) {
				continue
			}
			if !a.cfg.Reliable {
				// The flow's queue is full on a lossy fabric: drop like
				// the network would; Algorithm 2 repairs it. Only this
				// flow is penalized — other tenants' queues are unaffected.
				obsAggSchedDrops.Inc()
				transport.PutBuf(r.m.Data)
				continue
			}
			// Reliable transports must not drop; the router waits for the
			// shard, counted so a bottleneck shard is visible in
			// agg_router_stalls rather than showing up only as mysteriously
			// low throughput.
			obsAggStalls.Inc()
			if err := sh.in.PushWait(ns, it, len(r.m.Data)); err != nil {
				transport.PutBuf(r.m.Data)
			}
		}
	}
	close(routerDone)
	for _, s := range shards {
		s.in.Close()
	}
	wg.Wait()

	var sum AggStats
	for _, s := range shards {
		s.ms.fold(&sum)
	}
	a.Stats = sum

	for _, s := range shards {
		if s.err != nil && !errors.Is(s.err, transport.ErrClosed) {
			return s.err
		}
	}
	if gateErr != nil && !errors.Is(gateErr, transport.ErrClosed) {
		return gateErr
	}
	if recvErr != nil && recvErr != transport.ErrClosed {
		return recvErr
	}
	return nil
}

// queuedPackets reports how many admitted packets sit in shard
// schedulers.
func (a *Aggregator) queuedPackets() int {
	a.shardsMu.Lock()
	shards := a.shards
	a.shardsMu.Unlock()
	total := 0
	for _, s := range shards {
		total += s.in.Len()
	}
	return total
}

// drainPoll is the interval at which Drain re-checks for quiescence.
const drainPoll = 5 * time.Millisecond

// Drain gracefully quiesces the aggregator for a rolling restart: it
// stops admitting new jobs and collectives (refusals carry
// ErrAggregatorDraining so workers fail over instead of hanging), lets
// every in-flight round run to completion, and returns once no admitted
// operation, live slot, or queued packet remains — or with ctx's error
// if the deadline expires first. The registry's final per-tenant
// accounting stays published on the obs registry.
//
// Drain does not close the transport; the caller follows up with Close
// (or keeps serving replays) once Drain returns.
func (a *Aggregator) Drain(ctx context.Context) error {
	a.reg.StartDrain()
	obsAggDraining.Set(1)
	// Quiescent means nothing admitted is unfinished AND nothing is
	// queued between gate and machines. Two consecutive idle reads with a
	// settle gap close the window where a shard has popped the last
	// packet but not yet pushed its result to the transport.
	idleStreak := 0
	for {
		if a.reg.ActiveOps() == 0 && a.reg.LiveSlots() == 0 && a.queuedPackets() == 0 {
			idleStreak++
			if idleStreak >= 2 {
				obsAggDrains.Inc()
				return nil
			}
		} else {
			idleStreak = 0
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: drain: %w (ops=%d slots=%d queued=%d)",
				ctx.Err(), a.reg.ActiveOps(), a.reg.LiveSlots(), a.queuedPackets())
		case <-time.After(drainPoll):
		}
	}
}
