package core

import (
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Worker-side elastic membership: adopting views, acking epochs, and
// rebinding in-flight collectives when an aggregator fails over.
//
// Epochs bind at CONNECTION granularity: a worker acknowledges the view
// it operates under with one TypeViewAck per aggregator, and every data
// packet it then sends is implicitly stamped with that epoch on the
// aggregator's gate. The dense wire format is untouched — membership
// changes orders of magnitude less often than packets flow.

// viewFromPacket converts a decoded view-plane packet to the protocol
// view it carries.
func viewFromPacket(vp *wire.ViewPacket) protocol.View {
	v := protocol.View{Epoch: vp.Epoch}
	for _, id := range vp.Workers {
		v.Workers = append(v.Workers, int(id))
	}
	for _, id := range vp.Aggregators {
		v.Aggregators = append(v.Aggregators, int(id))
	}
	return v
}

// packetFromView converts a protocol view to its wire representation.
func packetFromView(t uint8, v protocol.View) *wire.ViewPacket {
	vp := &wire.ViewPacket{Type: t, Epoch: v.Epoch}
	for _, id := range v.Workers {
		vp.Workers = append(vp.Workers, int32(id))
	}
	for _, id := range v.Aggregators {
		vp.Aggregators = append(vp.Aggregators, int32(id))
	}
	return vp
}

// handleViewMsg consumes one view-plane message on the receive pump.
// Always takes ownership of m.Data.
func (w *Worker) handleViewMsg(t uint8, m transport.Message) {
	defer transport.PutBuf(m.Data)
	switch t {
	case wire.TypeView, wire.TypeStaleEpoch:
		// Both carry a view; a stale-epoch refusal of our own traffic is
		// ALSO how we learn a view whose announcement we missed.
		vp, err := wire.DecodeView(m.Data)
		if err != nil {
			w.pump.badPackets.Add(1)
			obsPumpBad.Inc()
			return
		}
		if t == wire.TypeStaleEpoch {
			obsWorkerStaleEpochs.Inc()
		}
		w.maybeApplyView(viewFromPacket(vp))
	default:
		// TypeViewAck / TypeCheckpoint are aggregator-bound.
		w.pump.staleDrops.Add(1)
		obsPumpStale.Inc()
	}
}

// maybeApplyView adopts v if it is newer than the current view: swaps
// the aggregator list (future sends re-resolve AggregatorFor against
// it), acks the epoch to every aggregator of the new view, and notifies
// every in-flight operation so its driver rebinds and replays. Equal
// epochs re-ack only (the announcement may be a retransmission); older
// views are ignored.
func (w *Worker) maybeApplyView(v protocol.View) {
	w.mu.Lock()
	cur := w.view.Epoch
	if v.Epoch < cur || (v.Epoch == cur && cur == 0) {
		w.mu.Unlock()
		return
	}
	if v.Epoch == cur {
		w.mu.Unlock()
		w.sendViewAck(v)
		return
	}
	w.view = v.Clone()
	w.cfg.Aggregators = append([]int(nil), v.Aggregators...)
	qs := make([]*opQueue, 0, len(w.ops))
	for _, q := range w.ops {
		qs = append(qs, q)
	}
	w.mu.Unlock()
	obsWorkerViewChanges.Inc()
	obs.Emit(obs.EvViewChange, 0, int64(v.Epoch))
	w.sendViewAck(v)
	for _, q := range qs {
		q.notifyView(v)
	}
}

// sendViewAck binds this worker's connection to v's epoch on every
// aggregator of v. Best effort: a lost ack surfaces as a stale-epoch
// refusal, which carries the view and re-triggers the ack.
func (w *Worker) sendViewAck(v protocol.View) {
	vp := &wire.ViewPacket{Type: wire.TypeViewAck, WID: uint16(w.id), Epoch: v.Epoch}
	buf := wire.AppendView(transport.GetBuf(wire.EncodedViewSize(vp))[:0], vp)
	for _, agg := range v.Aggregators {
		_ = w.conn.Send(agg, buf)
	}
	transport.PutBuf(buf)
}

// RegisterPeer updates the transport's address book for a peer (the
// re-dial path after a view change introduces a standby the book never
// listed). No-op on transports that route by node ID (the in-process
// network). The address is canonicalized by the transport, so wildcard
// hosts registered after a rebind attribute identically to ones
// registered at construction.
func (w *Worker) RegisterPeer(id int, addr string) error {
	if r, ok := w.conn.(transport.PeerRegistrar); ok {
		return r.RegisterPeer(id, addr)
	}
	return nil
}
