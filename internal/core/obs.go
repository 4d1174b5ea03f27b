package core

import (
	"omnireduce/internal/obs"
)

// Process-wide datapath metrics, registered on the obs default registry.
// All of them are plain atomic counters/histograms: updating one from
// the hot path is a single uncontended atomic add, within the
// observability layer's zero-allocation budget. Trace events (obs.Emit)
// ride alongside for per-collective detail and cost one atomic pointer
// load when no tracer is installed.
var (
	obsOpsStarted = obs.Default.Counter("worker_ops_started")
	obsOpsDone    = obs.Default.Counter("worker_ops_done")
	obsOpLatency  = obs.Default.Histogram("worker_op_latency_ns")
	obsTxBytes    = obs.Default.Counter("worker_tx_bytes")
	obsTxPackets  = obs.Default.Counter("worker_tx_packets")

	obsPumpDelivered = obs.Default.Counter("worker_pump_delivered")
	obsPumpStale     = obs.Default.Counter("worker_pump_stale_drops")
	obsPumpOverflow  = obs.Default.Counter("worker_pump_overflow_drops")
	obsPumpBad       = obs.Default.Counter("worker_pump_bad_packets")

	// Transmit-batch flush reasons (see txBatch) and opState free-list
	// behavior (see Worker.beginOpAt).
	obsWorkerFlushEnd  = obs.Default.Counter("worker_tx_flush_end")
	obsWorkerFlushFull = obs.Default.Counter("worker_tx_flush_full")
	obsAggFlushEnd     = obs.Default.Counter("agg_tx_flush_end")
	obsAggFlushFull    = obs.Default.Counter("agg_tx_flush_full")
	obsOpStateNew      = obs.Default.Counter("worker_opstate_alloc")
	obsOpStateReused   = obs.Default.Counter("worker_opstate_reuse")

	obsAggPackets = obs.Default.Counter("agg_rx_packets")
	obsAggTxBytes = obs.Default.Counter("agg_tx_bytes")
	obsAggStalls  = obs.Default.Counter("agg_router_stalls")
	obsAggRxSize  = obs.Default.Histogram("agg_rx_packet_bytes")

	// Multi-tenant admission and scheduling (see admitGate, tenant.DRR,
	// Aggregator.Drain). ops_admitted/ops_rejected count registry verdicts
	// on first-seen (tensor, worker, sender) triples; rejects_sent counts refusal
	// control packets actually transmitted (job rejects included);
	// sched_drops counts packets shed by a full per-tenant scheduler queue
	// on unreliable transports; late_drops counts admitted packets that
	// straggled in after their job closed. The per-tenant breakdown of the
	// admission counters lives on "tenant:<name>:..." metrics registered
	// by the tenant registry.
	obsAggCtrlPackets = obs.Default.Counter("agg_ctrl_packets")
	obsAggOpsAdmitted = obs.Default.Counter("agg_ops_admitted")
	obsAggOpsRejected = obs.Default.Counter("agg_ops_rejected")
	obsAggRejectsSent = obs.Default.Counter("agg_rejects_sent")
	obsAggSchedDrops  = obs.Default.Counter("agg_sched_drops")
	obsAggLateDrops   = obs.Default.Counter("agg_late_drops")
	obsAggDraining    = obs.Default.Gauge("agg_draining")
	obsAggDrains      = obs.Default.Counter("agg_drains_completed")

	// Elastic membership & failover. view_changes counts adopted views
	// (epoch bumps) per side and agg_view_epoch is the epoch of the last
	// view an aggregator of this process was built with or adopted (a
	// process hosts one, in-process clusters aside); stale_epoch counters
	// count typed refusals issued (aggregator) and received (worker).
	// ck_frames_sent counts committed results mirrored to standbys and
	// ck_bytes_sent their bytes over all peers, ck_frames_stored the
	// frames a standby kept, ck_restores the machines a successor built
	// from them. watchdog_suppressed counts stall-watchdog periods
	// swallowed because a view change had just rebound the operation.
	obsWorkerViewChanges  = obs.Default.Counter("worker_view_changes")
	obsWorkerStaleEpochs  = obs.Default.Counter("worker_stale_epoch_refusals")
	obsWatchdogSuppressed = obs.Default.Counter("worker_watchdog_suppressed")
	obsAggViewChanges     = obs.Default.Counter("agg_view_changes")
	obsAggStaleRefusals   = obs.Default.Counter("agg_stale_epoch_refusals")
	obsAggViewEpoch       = obs.Default.Gauge("agg_view_epoch")
	obsAggCkSent          = obs.Default.Counter("agg_ck_frames_sent")
	obsAggCkBytes         = obs.Default.Counter("agg_ck_bytes_sent")
	obsAggCkStored        = obs.Default.Counter("agg_ck_frames_stored")
	obsAggCkRestored      = obs.Default.Counter("agg_ck_restores")
)

// observeWorkerTx records one transmitted packet of n encoded bytes on
// the worker metrics and trace. Called from the worker txBatch after a
// successful flush. EvRetransmit is NOT emitted here: the worker machine
// itself emits it (slot- and round-tagged) so the live and simulated
// substrates produce identical repair-event streams.
func observeWorkerTx(tid uint32, n int) {
	obsTxPackets.Inc()
	obsTxBytes.Add(int64(n))
	obs.Emit(obs.EvPacketSent, tid, int64(n))
}

// observeAggTx is the aggregator txBatch's per-packet observation.
func observeAggTx(tid uint32, n int) {
	obsAggTxBytes.Add(int64(n))
	obs.Emit(obs.EvPacketSent, tid, int64(n))
}
