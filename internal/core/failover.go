package core

import (
	"fmt"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Aggregator-side elastic membership: epoch enforcement on the admission
// gate, result mirroring to standbys, and standby activation (failover
// takeover).
//
// What a standby needs of a primary is the results the primary committed
// (protocol.AggregatorMachine.AdoptResult), so that is all that is sent:
// each committed result, once more, to every checkpoint peer. The
// correctness backbone is the output-commit rule, and it is one line of
// ordering: a round's mirror frames are sent BEFORE the round's result
// emits. Any worker holding result r therefore implies the frame carrying
// r is already in the standby's receive queue (per-pair FIFO), so an
// activated standby is never behind a worker. If a frame is nevertheless
// lost (a standby on a lossy link), the machines' fast-forward resync
// recovers the one-round gap from the workers' own packets.

// shadowKey names one shadow machine of a standby: the primary whose
// results it adopts (a standby may serve several, and must resume from the
// state of the node it replaces, not whichever wrote last), the tensor-ID
// namespace, and the standby's own shard the slots fall in — its own,
// because the successor's machines are laid out by its shard count, not
// the dead primary's.
type shadowKey struct {
	from  int
	ns    uint32
	shard int
}

// Bounds on what a peer can make a standby hold: shadow machines in all,
// and the slot index within one, since a frame's 16-bit slot would
// otherwise let one frame grow a shadow's slot table to 64 Ki entries.
// Within a slot the machine bounds itself (protocol.ArchiveDepth).
const (
	maxShadows    = 1024
	maxShadowSlot = 1 << 12
)

// View returns the aggregator's current membership view (Epoch 0 =
// static legacy membership).
func (a *Aggregator) View() protocol.View {
	a.viewMu.Lock()
	defer a.viewMu.Unlock()
	return a.view.Clone()
}

func (a *Aggregator) curEpoch() uint32 {
	a.viewMu.Lock()
	defer a.viewMu.Unlock()
	return a.view.Epoch
}

// Standby reports whether the aggregator is still passive (not yet
// activated into a view that lists it).
func (a *Aggregator) Standby() bool {
	a.viewMu.Lock()
	defer a.viewMu.Unlock()
	return a.standby
}

// Activate installs a newer view on this aggregator and announces it to
// every member: the failover takeover step. On a standby it flips the
// node active — the results it stored are adopted lazily, as each
// namespace's first data packet arrives (every frame from the dead
// primary is FIFO-ahead of any post-rebind worker data, so the store is
// complete by then). On an already-active aggregator it just adopts the
// new membership. Views not newer than the current one are refused.
//
// The announcement fans out to the view's workers and its other
// aggregators (survivors must adopt the epoch too, or they would refuse
// the workers' re-bound connections forever). Send errors are reported
// but non-fatal: any member that missed the announcement learns the view
// from the first stale-epoch refusal instead.
func (a *Aggregator) Activate(v protocol.View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	a.viewMu.Lock()
	if v.Epoch <= a.view.Epoch {
		cur := a.view.Epoch
		a.viewMu.Unlock()
		return fmt.Errorf("core: activate: view epoch %d not newer than current %d", v.Epoch, cur)
	}
	// Record which primary this node replaces: the node the outgoing view
	// listed at the position the new view gives us. Its results are the
	// ones our machines must adopt.
	if a.standby {
		self := a.conn.LocalID()
		for i, agg := range v.Aggregators {
			if agg == self && i < len(a.view.Aggregators) {
				a.restoreFrom = a.view.Aggregators[i]
			}
		}
	}
	a.view = v.Clone()
	a.standby = false
	a.viewMu.Unlock()
	a.enforce.Store(true)
	obsAggViewChanges.Inc()
	obsAggViewEpoch.Set(int64(v.Epoch))
	obs.Emit(obs.EvViewChange, 0, int64(v.Epoch))

	vp := packetFromView(wire.TypeView, v)
	buf := wire.AppendView(transport.GetBuf(wire.EncodedViewSize(vp))[:0], vp)
	var err error
	self := a.conn.LocalID()
	for _, wk := range v.Workers {
		if e := a.conn.Send(wk, buf); e != nil && err == nil {
			err = e
		}
	}
	for _, agg := range v.Aggregators {
		if agg == self {
			continue
		}
		if e := a.conn.Send(agg, buf); e != nil && err == nil {
			err = e
		}
	}
	transport.PutBuf(buf)
	return err
}

// shadowResult rules on one TypeCheckpoint frame: its result is adopted by
// the shadow machine of (sender, namespace, shard), which is all a standby
// keeps of it. A standby adopts from a node its view lists as an
// aggregator, frames not older than that view; once activated it adopts
// only what the primary it replaced sent before dying (frames still queued
// behind the activation are ahead of any rebound worker's data, so they
// are in the shadow by the time a machine takes it over). The result must
// belong to the namespace the envelope names, and be one AdoptResult
// accepts. Everything else is dropped, which costs a well-behaved primary
// nothing and a lossy link one round of fast-forward.
func (a *Aggregator) shadowResult(from int, buf []byte, dec *decodeState) {
	f, err := wire.DecodeCheckpoint(buf)
	if err != nil {
		return
	}
	pm, err := dec.decode(f.Result)
	res := pm.Dense
	if err != nil || res == nil || protocol.TidNamespace(res.TensorID) != f.NS || res.Slot >= maxShadowSlot {
		return
	}
	a.viewMu.Lock()
	defer a.viewMu.Unlock()
	if a.standby {
		if !a.view.HasAggregator(from) || f.Epoch < a.view.Epoch {
			return
		}
	} else if from != a.restoreFrom {
		return
	}
	k := shadowKey{from: from, ns: f.NS, shard: int(res.Slot) % a.cfg.AggShards}
	m := a.shadows[k]
	if m == nil {
		if len(a.shadows) >= maxShadows {
			return
		}
		if a.shadows == nil {
			a.shadows = make(map[shadowKey]*protocol.AggregatorMachine)
		}
		m = protocol.NewAggregatorMachine(a.cfg.Protocol(), a.conn.LocalID())
		a.shadows[k] = m
	}
	if m.AdoptResult(res) {
		obsAggCkStored.Inc()
	}
}

// CheckpointsFrom reports how many mirrored results from primary node
// `from` this aggregator currently holds. Chaos harnesses use it to kill
// a primary only once its standby provably has state to take over from;
// orchestrators can use it to gate activation the same way.
func (a *Aggregator) CheckpointsFrom(from int) int {
	a.viewMu.Lock()
	defer a.viewMu.Unlock()
	n := 0
	for k, m := range a.shadows {
		if k.from == from {
			n += m.Held()
		}
	}
	return n
}

// mirrorCommits sends the result the burst commits, if any, to each
// checkpoint peer, as its own encoding behind a TypeCheckpoint envelope.
// Called after a machine step and BEFORE sendEmits transmits the burst (the
// output-commit rule). Best effort per peer: a dead or unknown standby
// must not take down the primary, and a lost frame is recovered by
// fast-forward resync.
func (a *Aggregator) mirrorCommits(tx *txBatch, conn transport.Conn, emits []protocol.Emit, shard int) {
	e := protocol.Committed(emits)
	if e == nil {
		return
	}
	f := wire.CheckpointFrame{Shard: uint16(shard), NS: protocol.TidNamespace(e.Packet.TensorID), Epoch: a.curEpoch()}
	n := wire.CheckpointHeaderLen + e.Size
	for _, peer := range a.cfg.CheckpointPeers {
		_ = tx.sendOwned(conn, peer, wire.AppendCheckpoint(transport.GetBuf(n)[:0], &f, e.Packet))
		obsAggCkBytes.Add(int64(n))
	}
	obsAggCkSent.Inc()
	obs.Emit(obs.EvCheckpoint, f.NS, int64(n))
}

// adoptShadow is machineSet's restore hook: m was just built for (shard,
// ns) — with the job's own worker count, which a shadow cannot know — and
// adopts what the shadow of the primary this node replaced at activation
// holds (of any source, when a manual activation recorded no predecessor).
// Consume-once: the shadow leaves the store, so a machine rebuilt later
// starts fresh instead of resurrecting the dead node's past.
func (a *Aggregator) adoptShadow(m *protocol.AggregatorMachine, shard int, ns uint32) {
	var taken []*protocol.AggregatorMachine
	a.viewMu.Lock()
	for k, sh := range a.shadows {
		if k.ns == ns && k.shard == shard && (k.from == a.restoreFrom || a.restoreFrom < 0) {
			taken = append(taken, sh)
			delete(a.shadows, k)
		}
	}
	a.viewMu.Unlock()
	for _, sh := range taken {
		if m.AdoptFrom(sh) {
			obsAggCkRestored.Inc()
		}
		sh.Release()
	}
}

// releaseShadows retires the shadows nobody took over (Run's exit).
func (a *Aggregator) releaseShadows() {
	a.viewMu.Lock()
	defer a.viewMu.Unlock()
	for k, sh := range a.shadows {
		sh.Release()
		delete(a.shadows, k)
	}
}

// viewMsg consumes one view-plane message on the gate (the single Recv-
// consumer thread, which owns the epoch bindings). Always takes
// ownership of m.Data. Malformed view traffic is dropped — it is off the
// datapath and carries no buffer-pool obligations beyond the recycle.
func (g *admitGate) viewMsg(t uint8, m transport.Message) error {
	from := m.From
	switch t {
	case wire.TypeViewAck:
		vp, err := wire.DecodeView(m.Data)
		transport.PutBuf(m.Data)
		if err == nil {
			g.bound[from] = vp.Epoch
		}
		return nil
	case wire.TypeView:
		vp, err := wire.DecodeView(m.Data)
		transport.PutBuf(m.Data)
		if err != nil {
			return nil
		}
		v := viewFromPacket(vp)
		if v.Validate() != nil || v.Epoch <= g.a.curEpoch() {
			return nil
		}
		// Adopting a newer view re-announces it (Activate): harmless
		// fan-out amplification bounded by the aggregator count, and it
		// doubles as gossip for members the activator could not reach.
		err = g.a.Activate(v)
		if err != nil {
			return nil // lost announcements self-heal via refusals
		}
		return nil
	case wire.TypeCheckpoint:
		g.a.shadowResult(from, m.Data, &g.dec)
		transport.PutBuf(m.Data)
		return nil
	default:
		// TypeStaleEpoch at an aggregator is a stray reflection.
		transport.PutBuf(m.Data)
		return nil
	}
}

// refuseStaleEpoch answers a data packet from a connection bound to the
// wrong epoch with a typed TypeStaleEpoch refusal carrying the current
// view (never a silent drop: the refusal is also how the sender learns
// the view it missed).
func (g *admitGate) refuseStaleEpoch(to int, tid uint32) error {
	obsAggStaleRefusals.Inc()
	vp := packetFromView(wire.TypeStaleEpoch, g.a.View())
	vp.Reason = wire.ReasonStaleEpoch
	vp.TensorID = tid
	g.ctrlBuf = wire.AppendView(g.ctrlBuf[:0], vp)
	return g.a.conn.Send(to, g.ctrlBuf)
}
