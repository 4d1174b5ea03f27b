package protocol

import (
	"fmt"
	"time"

	"omnireduce/internal/obs"
)

// This file holds epoch-numbered group views: the membership data that
// lets a running deployment survive aggregator loss (motivated by Flare's
// fault-tolerant aggregation trees and SparCML's changing participant
// sets). A View names the participant set of one epoch. The rules on
// epochs live in the drivers that enforce them: the aggregator's
// admission gate refuses data from a connection bound to another epoch,
// Aggregator.Activate installs only a newer view, and the worker's
// maybeApplyView adopts only a newer one. WorkerMachine.Rebind is the
// machine's half of a view change.

// View is one epoch of group membership: the worker node IDs and the
// aggregator node IDs serving the streams, in stream round-robin order
// (stream s is served by Aggregators[s % len(Aggregators)], exactly
// Config.AggregatorFor). Epoch 0 is reserved for "no view configured" —
// the legacy static-membership mode in which epoch enforcement is off.
type View struct {
	Epoch       uint32
	Workers     []int
	Aggregators []int
}

// Clone returns a deep copy of the view.
func (v View) Clone() View {
	return View{
		Epoch:       v.Epoch,
		Workers:     append([]int(nil), v.Workers...),
		Aggregators: append([]int(nil), v.Aggregators...),
	}
}

// HasAggregator reports whether node id serves streams in this view.
func (v View) HasAggregator(id int) bool {
	for _, a := range v.Aggregators {
		if a == id {
			return true
		}
	}
	return false
}

// Validate reports structural errors (an installable view needs a
// non-zero epoch and at least one aggregator).
func (v View) Validate() error {
	if v.Epoch == 0 {
		return fmt.Errorf("protocol: view epoch 0 is reserved for static membership")
	}
	if len(v.Aggregators) == 0 {
		return fmt.Errorf("protocol: view %d has no aggregators", v.Epoch)
	}
	return nil
}

// Rebind re-resolves every stream's aggregator against a new aggregator
// list after a view change: the machine swaps its routing table and
// replays each non-done stream's outstanding packet to its (possibly
// new) destination, with retries and backoff reset — the new incarnation
// has never timed us out. Replays count as retransmissions.
//
// Replay is only performed in unreliable mode, where Algorithm 2's
// versioned rounds make it idempotent (the restored aggregator filters
// duplicates by round and seen-set, and answers genuinely lost rounds
// from lastRes or its archive). In reliable mode the swap still applies
// to future sends, but nothing is replayed: Algorithm 1 has no dedup
// state, so a blind resend could double-merge — reliable-mode failover
// is limited to graceful handoff at a round boundary (see DESIGN §12).
func (m *WorkerMachine) Rebind(aggs []int, now time.Duration, eb *EmitBuf) {
	// cfg.Aggregators may share backing with the driver's config; never
	// mutate it in place.
	m.cfg.Aggregators = append([]int(nil), aggs...)
	if m.cfg.Reliable || !m.started {
		return
	}
	for _, st := range m.streams {
		if st == nil || st.done || st.last == nil {
			continue
		}
		st.sentAt = now
		st.retries = 0
		st.timeout = m.firstTimeout()
		m.stats.PacketsSent++
		m.stats.Retransmits++
		m.stats.BytesSent += int64(st.lastSize)
		obs.EmitSlot(obs.EvRetransmit, int32(m.id), m.tid, uint16(st.idx), st.last.Version, int64(st.lastSize))
		eb.Append(Emit{Dst: m.cfg.AggregatorFor(st.idx), Packet: st.last, Size: st.lastSize, Retransmit: true})
	}
}
