package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"omnireduce/internal/collective"
	"omnireduce/internal/core"
	"omnireduce/internal/obs"
	"omnireduce/internal/perfmodel"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// perLayer lists what a traced run reports, layer by layer. Metrics that
// a workload's path does not touch read 0 there (checkpoint_* anywhere but
// checkpoint_chan, udp_* anywhere but dense_udp, kv_* anywhere but
// kv_sparse_chan, and so on).
var perLayer = []metricSpec{
	{"tensor.bitmap_scan_ms_per_op", "ms", "lower"},
	{"tensor.bitmap_scan_gb_s", "GB/s", "higher"},
	{"tensor.addf32_gb_s", "GB/s", "higher"},
	{"tensor.nonzero_blocks_per_op", "count", "lower"},
	{"tensor.block_sparsity_achieved", "ratio", "higher"},

	{"wire.encode_ns_per_pkt", "ns", "lower"},
	{"wire.decode_ns_per_pkt", "ns", "lower"},
	{"wire.pkts_per_op", "count", "lower"},
	{"wire.bytes_per_pkt", "bytes", "higher"},
	{"wire.kv_encode_ns_per_pkt", "ns", "lower"},
	{"wire.kv_decode_ns_per_pkt", "ns", "lower"},

	{"protocol.machine_only_ms_per_op", "ms", "lower"},
	{"protocol.codec_loop_ms_per_op", "ms", "lower"},
	{"protocol.rounds_per_op", "count", "lower"},
	{"protocol.blocks_sent_per_op", "count", "lower"},
	{"protocol.lookahead_skip_ratio", "ratio", "higher"},
	{"protocol.allocs_per_op", "count", "lower"},
	{"protocol.kv_machine_ms_per_op", "ms", "lower"},
	{"protocol.retransmits_per_op", "count", "lower"},
	{"protocol.stale_results_per_op", "count", "lower"},
	{"protocol.checkpoint_snapshot_ms_per_op", "ms", "lower"},

	{"core.driver_nofabric_ms_per_op", "ms", "lower"},
	{"core.driver_residual_ms_per_op", "ms", "lower"},
	{"core.allocs_per_op", "count", "lower"},
	{"core.alloc_bytes_per_op", "bytes", "lower"},
	{"core.pump_delivered_per_op", "count", "lower"},
	{"core.pump_overflow_drops", "count", "lower"},
	{"core.opstate_reuse_ratio", "ratio", "higher"},
	{"core.tx_flushes_per_op", "count", "lower"},
	{"core.checkpoint_frames_per_op", "count", "lower"},
	{"core.checkpoint_bytes_per_op", "bytes", "lower"},
	{"core.checkpoint_send_ms_per_op", "ms", "lower"},

	{"transport.send_calls_per_op", "count", "lower"},
	{"transport.send_ns_per_call", "ns", "lower"},
	{"transport.recv_wait_ms_per_op", "ms", "lower"},
	{"transport.agg_recv_wait_ms_per_op", "ms", "lower"},
	{"transport.bytes_per_op", "bytes", "lower"},
	{"transport.chan_rtt_us", "us", "lower"},
	{"transport.chan_rtt_small_us", "us", "lower"},
	{"transport.udp_rtt_us", "us", "lower"},
	{"transport.udp_rtt_small_us", "us", "lower"},
	{"transport.chan_msgs_per_s", "1/s", "higher"},
	{"transport.pool_hit_ratio", "ratio", "higher"},
	{"transport.udp_tx_batch_size_mean", "count", "higher"},
	{"transport.udp_rx_batch_size_mean", "count", "higher"},
	{"transport.udp_syscalls_per_op", "count", "lower"},

	{"tenant.drr_ns_per_item_1flow", "ns", "lower"},
	{"tenant.drr_ns_per_item_4flow", "ns", "lower"},
	{"tenant.multijob_tax", "ratio", "lower"},

	{"collective.ring_op_ms_p50", "ms", "lower"},
	{"collective.agsparse_op_ms_p50", "ms", "lower"},
	{"collective.speedup_vs_ring", "ratio", "higher"},

	{"perfmodel.t_omni_pred_ms", "ms", "lower"},
	{"perfmodel.measured_over_pred", "ratio", "lower"},

	{"obs.untraced_op_ms_p50", "ms", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.worker_op_latency_p50_ms", "ms", "lower"},
	{"obs.worker_op_latency_mean_ms", "ms", "lower"},
	{"obs.harness_op_mean_ms", "ms", "lower"},

	{"budget.op_ms_p50_traced", "ms", "lower"},
	{"budget.unattributed_ms_per_op", "ms", "lower"},
}

// Shares of a traced run's -seconds. The live section alternates untraced
// and traced trials on one cluster, so the tracing overhead is a
// difference between neighbours, not between processes.
const (
	livePairs    = 4    // (untraced, traced) trial pairs
	liveShare    = 0.05 // of -seconds, per live trial
	rungShare    = 0.04 // of -seconds, per replay rung
	clusterShare = 0.06 // of -seconds, per comparison cluster (no-fabric, ring, AGsparse, multijob base)
	minRungReps  = 3
	smallMessage = 64 // bytes of the small ping-pong message
)

// counters reads the obs registry counters a traced run takes deltas of.
func counters(names ...string) map[string]int64 {
	m := map[string]int64{}
	for _, n := range names {
		m[n] = obs.Default.Counter(n).Load()
	}
	return m
}

var registryCounters = []string{
	"worker_tx_flush_end", "worker_tx_flush_full", "agg_tx_flush_end", "agg_tx_flush_full",
	"agg_ck_frames_sent",
	"udp_tx_batches", "udp_tx_batch_dgrams", "udp_rx_batches", "udp_rx_batch_dgrams",
}

// repeat calls f until budget has passed and at least minRungReps calls
// were made; it returns the calls made and the time inside them as f
// reports it (f times only what it measures).
func repeat(budget time.Duration, f func() (time.Duration, error)) (int, time.Duration, error) {
	var took time.Duration
	n := 0
	for end := time.Now().Add(budget); n < minRungReps || time.Now().Before(end); n++ {
		d, err := f()
		if err != nil {
			return n, took, err
		}
		took += d
	}
	return n, took, nil
}

// sampled records how many samples stand behind the named per-layer
// metrics (ops for live-path figures, replays for rungs); the count rides
// in the same map under a "samples." key until the result is assembled.
func sampled(m map[string]float64, n float64, names ...string) {
	for _, name := range names {
		m["samples."+name] = n
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces the per-layer metrics and the time budget, one
// workload after another (a traced run is about shares of one op, so
// there is nothing to interleave).
func runTraced(wls []*workload, cfg config) ([]*result, error) {
	var results []*result
	for _, wl := range wls {
		res, err := traceWorkload(wl, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func traceWorkload(wl *workload, cfg config) (*result, error) {
	share := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }
	m := map[string]float64{}
	tr := newTracer()

	// Live path: the real cluster with every endpoint wrapped.
	var conns []*tracedConn
	wrap := func(c transport.Conn) transport.Conn {
		tc := &tracedConn{inner: c, tr: tr, node: c.LocalID()}
		conns = append(conns, tc)
		return tc
	}
	r, err := newRunner(wl, cfg.seed, cfg.deadline, func(wl *workload, in *inputs) (*rig, error) {
		return newRig(wl, in, fabricOf(wl), wrap)
	})
	if err != nil {
		return nil, err
	}
	r.settle()
	r.tr = tr
	in := r.in
	res := &result{Name: wl.name, Why: wl.why, Traffic: traffic(wl), Achieved: in.achieved, Metrics: map[string]value{}}
	live, err := liveSection(r, tr, conns, share(liveShare), m)
	closeErr := r.close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	for _, t := range live {
		res.Attempted += t.ops()
		res.Failed += t.failed
	}
	p50 := m["budget.op_ms_p50_traced"]

	m["tensor.nonzero_blocks_per_op"] = float64(in.nonzeroBlocks)
	m["tensor.block_sparsity_achieved"] = 1 - float64(in.nonzeroBlocks)/float64(workers*((wl.elems+blockSize-1)/blockSize))
	if wl.kind != kindKV {
		tensorRungs(wl, in, tr, share(rungShare), m)
	}
	if err := protocolRungs(wl, in, tr, share(rungShare), m); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	m["core.driver_residual_ms_per_op"] = p50 - m["protocol.codec_loop_ms_per_op"]

	// Real core.Worker/core.Aggregator over a fabric that costs one
	// goroutine hand-off per message and nothing else.
	nf, err := clusterP50(wl, cfg, share(clusterShare), func(wl *workload, in *inputs) (*rig, error) {
		return newRig(wl, in, handoffFabric, nil)
	})
	if err != nil {
		return nil, err
	}
	m["core.driver_nofabric_ms_per_op"] = nf

	if err := transportRungs(wl, share(rungShare), m); err != nil {
		return nil, err
	}
	tenantRungs(share(rungShare)/2, m)
	if wl.kind == kindMultiJob {
		base, err := clusterP50(allWorkloads(cfg.shrink)[0], cfg, share(clusterShare), bare)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: tenant.multijob_tax base: dense_chan op_ms_p50 = %.4f ms\n", wl.name, base)
		m["tenant.multijob_tax"] = ratio(m["obs.untraced_op_ms_p50"], base)
	}
	if wl.kind == kindDense && !wl.udp && !wl.checkpoint {
		if err := collectiveRungs(wl, cfg, share(clusterShare), m); err != nil {
			return nil, err
		}
		// §3.4's best case, fed this box's measured fabric: bandwidth is
		// what the channel fabric moves in max-size messages, latency half
		// its round trip.
		pred := perfmodel.TOmniReduce(perfmodel.Params{
			N:         workers,
			B:         m["transport.chan_msgs_per_s"] * m["wire.bytes_per_pkt"] * 8,
			Alpha:     m["transport.chan_rtt_us"] / 2 * 1e-6,
			S:         float64(wl.elems),
			ElemBytes: 4,
			D:         1 - m["tensor.block_sparsity_achieved"],
		}) * 1e3
		m["perfmodel.t_omni_pred_ms"] = pred
		m["perfmodel.measured_over_pred"] = ratio(m["obs.untraced_op_ms_p50"], pred)
	}

	// The budget: what each rung costs per op against the traced median.
	// Rows are single-goroutine replay times (or, for transport.send, time
	// inside Send summed over endpoints), so on two cores the live path can
	// overlap them: a negative remainder is overlap, a positive one is
	// waiting and scheduling no rung explains. core.driver is what the
	// no-fabric cluster spends beyond the rungs replayed above and beyond
	// its own fabric: the live path's messages at the hand-off's bare cost,
	// so that sending is counted once, in transport.send.
	handoff := m["budget.msgs_per_op"] * m["budget.handoff_us_per_msg"] / 1e3
	rows := []budgetRow{
		{Rung: "tensor.bitmap_scan", Ms: m["tensor.bitmap_scan_ms_per_op"]},
		{Rung: "protocol.machines", Ms: m["protocol.machine_only_ms_per_op"]},
		{Rung: "wire.codec", Ms: m["budget.codec_ms_per_op"]},
		{Rung: "protocol.checkpoint_snapshot", Ms: m["protocol.checkpoint_snapshot_ms_per_op"]},
		{Rung: "core.driver", Ms: nf - handoff - m["protocol.codec_loop_ms_per_op"] - m["tensor.bitmap_scan_ms_per_op"] - m["protocol.checkpoint_snapshot_ms_per_op"]},
		{Rung: "transport.send", Ms: m["budget.send_ms_per_op"]},
	}
	rest := p50
	for _, row := range rows {
		rest -= row.Ms
	}
	rows = append(rows, budgetRow{Rung: "unattributed", Ms: rest})
	for i := range rows {
		rows[i].Share = ratio(rows[i].Ms, p50)
	}
	res.Budget = rows
	m["budget.unattributed_ms_per_op"] = rest

	for _, spec := range perLayer {
		res.Metrics[spec.name] = value{Value: m[spec.name], Unit: spec.unit, Samples: int(m["samples."+spec.name])}
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+wl.name+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: trace file:", err)
	}
	return res, nil
}

// liveSection alternates untraced and traced trials on r's cluster and
// fills in everything that is read off the live path: the tracedConn
// figures, the registry and pool counter deltas, and the allocation rate.
func liveSection(r *runner, tr *tracer, conns []*tracedConn, d time.Duration, m map[string]float64) ([]trial, error) {
	reg0 := counters(registryCounters...)
	pool0 := transport.PoolCounters().Snapshot()
	hist0 := obs.Default.Histogram("worker_op_latency_ns").Snapshot()
	wc0 := workerCounters(r.rig.cw)

	var off, on, all []trial
	var objects, bytes uint64
	for i := 0; i < livePairs; i++ {
		o0, b0 := mallocs()
		t := r.runTrial(d)
		o1, b1 := mallocs()
		objects, bytes = objects+o1-o0, bytes+b1-b0
		off = append(off, t)
		tr.on.Store(true)
		t = r.runTrial(d)
		tr.on.Store(false)
		on = append(on, t)
	}
	all = append(append(all, off...), on...)
	ops := func(ts []trial) (n float64) {
		for i := range ts {
			n += float64(ts[i].ops())
		}
		return n
	}
	if r.dead {
		return all, fmt.Errorf("%s: an op hit its deadline during the traced run", r.wl.name)
	}
	p50 := func(ts []trial) float64 {
		var v []float64
		for i := range ts {
			v = append(v, ts[i].metrics(r.in.opBytes)["op_ms_p50"])
		}
		return median(v)
	}
	nOff, nOn, nAll := ops(off), ops(on), ops(all)
	m["obs.untraced_op_ms_p50"] = p50(off)
	m["budget.op_ms_p50_traced"] = p50(on)
	m["obs.trace_overhead_pct"] = 100 * ratio(p50(on)-p50(off), p50(off))
	m["core.allocs_per_op"] = float64(objects) / nOff
	m["core.alloc_bytes_per_op"] = float64(bytes) / nOff

	// tracedConn: work inside Send, waiting inside Recv.
	var send, aggRecv, workerRecv linkSnapshot
	var ckpt linkSnapshot
	scalarSends := int64(0)
	for _, c := range conns {
		s := c.send.snapshot()
		send.calls, send.msgs, send.bytes, send.ns = send.calls+s.calls, send.msgs+s.msgs, send.bytes+s.bytes, send.ns+s.ns
		rc := c.recv.snapshot()
		switch {
		case c.node < workers:
			workerRecv.ns += rc.ns
		case c.node == aggID:
			aggRecv.ns += rc.ns
			ckpt = c.to[standbyID].snapshot()
		}
		for i := range c.to {
			scalarSends += c.to[i].calls.Load()
		}
	}
	m["transport.send_calls_per_op"] = float64(send.calls) / nOn
	m["transport.send_ns_per_call"] = ratio(float64(send.ns), float64(send.calls))
	m["transport.bytes_per_op"] = float64(send.bytes) / nOn
	m["transport.recv_wait_ms_per_op"] = float64(workerRecv.ns) / 1e6 / workers / nOn
	m["transport.agg_recv_wait_ms_per_op"] = float64(aggRecv.ns) / 1e6 / nOn
	m["budget.send_ms_per_op"] = float64(send.ns) / 1e6 / nOn
	m["budget.msgs_per_op"] = float64(send.msgs) / nOn
	m["core.checkpoint_bytes_per_op"] = float64(ckpt.bytes) / nOn
	m["core.checkpoint_send_ms_per_op"] = float64(ckpt.ns) / 1e6 / nOn

	// Registry, pool and per-worker counters run through both kinds of
	// trial, so they are per op over all of them.
	reg := counters(registryCounters...)
	delta := func(name string) float64 { return float64(reg[name] - reg0[name]) }
	m["core.tx_flushes_per_op"] = (delta("worker_tx_flush_end") + delta("worker_tx_flush_full") + delta("agg_tx_flush_end") + delta("agg_tx_flush_full")) / nAll
	m["core.checkpoint_frames_per_op"] = delta("agg_ck_frames_sent") / nAll
	m["transport.udp_tx_batch_size_mean"] = ratio(delta("udp_tx_batch_dgrams"), delta("udp_tx_batches"))
	m["transport.udp_rx_batch_size_mean"] = ratio(delta("udp_rx_batch_dgrams"), delta("udp_rx_batches"))
	if r.wl.udp {
		// Batches from the registry (every trial) plus the scalar Sends
		// only the wrapper can see (traced trials).
		m["transport.udp_syscalls_per_op"] = (delta("udp_tx_batches")+delta("udp_rx_batches"))/nAll + float64(scalarSends)/nOn
	}
	pool := transport.PoolCounters().Snapshot()
	hits, misses := float64(pool["buf_pool_hits"]-pool0["buf_pool_hits"]), float64(pool["buf_pool_misses"]-pool0["buf_pool_misses"])
	m["transport.pool_hit_ratio"] = ratio(hits, hits+misses)

	wc := workerCounters(r.rig.cw)
	for i := range wc {
		wc[i] -= wc0[i]
	}
	retx, stale, delivered, overflow, created, reused := wc[0], wc[1], wc[2], wc[3], wc[4], wc[5]
	m["protocol.retransmits_per_op"] = retx / nAll
	m["protocol.stale_results_per_op"] = stale / nAll
	m["core.pump_delivered_per_op"] = delivered / nAll
	m["core.pump_overflow_drops"] = overflow
	m["core.opstate_reuse_ratio"] = ratio(reused, created+reused)

	// The library's own view of op latency, per worker, against the
	// harness's. The registry histogram has log2 buckets, so its p50 is an
	// upper bucket edge (within 2x); the means are exact and must agree.
	hist := obs.Default.Histogram("worker_op_latency_ns").Snapshot()
	hist.Count -= hist0.Count
	hist.Sum -= hist0.Sum
	for i := range hist.Buckets {
		hist.Buckets[i] -= hist0.Buckets[i]
	}
	m["obs.worker_op_latency_p50_ms"] = float64(hist.Quantile(0.5)) / 1e6
	m["obs.worker_op_latency_mean_ms"] = hist.Mean() / 1e6
	var wall time.Duration
	var n int
	for i := range all {
		for _, s := range all[i].spans {
			wall += s
			n++
		}
	}
	m["obs.harness_op_mean_ms"] = ratio(ms(wall), float64(n))
	sampled(m, nOff, "core.allocs_per_op", "core.alloc_bytes_per_op", "obs.untraced_op_ms_p50")
	sampled(m, nOn, "budget.op_ms_p50_traced", "obs.trace_overhead_pct",
		"transport.send_calls_per_op", "transport.send_ns_per_call", "transport.bytes_per_op",
		"transport.recv_wait_ms_per_op", "transport.agg_recv_wait_ms_per_op",
		"core.checkpoint_bytes_per_op", "core.checkpoint_send_ms_per_op")
	sampled(m, nAll, "core.tx_flushes_per_op", "core.checkpoint_frames_per_op", "transport.udp_syscalls_per_op",
		"transport.pool_hit_ratio", "protocol.retransmits_per_op", "protocol.stale_results_per_op",
		"core.pump_delivered_per_op", "core.opstate_reuse_ratio", "obs.worker_op_latency_mean_ms",
		"obs.harness_op_mean_ms")
	return all, nil
}

// workerCounters sums, over the rig's core workers, the counters a traced
// run takes deltas of: retransmits, stale results, pump deliveries, pump
// overflow drops, op states created, op states reused.
func workerCounters(ws []*core.Worker) (c [6]float64) {
	for _, w := range ws {
		s, p := w.Stats.Snapshot(), w.PumpSnapshot()
		created, reused := w.OpStateStats()
		for i, v := range []int64{s.Retransmits, s.StaleResults, p.Delivered, p.OverflowDrops, created, reused} {
			c[i] += float64(v)
		}
	}
	return c
}

// tensorRungs times the bitmap scan and the block accumulate on the
// workload's own tensors.
func tensorRungs(wl *workload, in *inputs, tr *tracer, budget time.Duration, m map[string]float64) {
	ts := make([]*tensor.Dense, workers)
	for w := range ts {
		ts[w] = tensor.FromSlice(in.pristine[w])
	}
	var bms [workers]*tensor.Bitmap
	n, took, _ := repeat(budget, func() (time.Duration, error) {
		return tr.rung("tensor.ComputeBitmap", func() {
			for w, t := range ts {
				bms[w] = tensor.ComputeBitmap(t, blockSize)
			}
		}), nil
	})
	m["tensor.bitmap_scan_ms_per_op"] = ms(took) / float64(n)
	m["tensor.bitmap_scan_gb_s"] = float64(n) * float64(4*wl.elems*workers) / took.Seconds() / 1e9
	sampled(m, float64(n), "tensor.bitmap_scan_ms_per_op", "tensor.bitmap_scan_gb_s")

	// What the aggregator's accumulate costs at best: AddF32 over every
	// non-zero block of every worker.
	acc := make([]float32, wl.elems)
	n, took, _ = repeat(budget, func() (time.Duration, error) {
		return tr.rung("tensor.AddF32", func() {
			for w, t := range ts {
				for b := bms[w].NextSet(0); b >= 0; b = bms[w].NextSet(b + 1) {
					lo := b * blockSize
					tensor.AddF32(acc[lo:lo+len(t.Block(b, blockSize))], t.Block(b, blockSize))
				}
			}
		}), nil
	})
	m["tensor.addf32_gb_s"] = float64(n) * float64(in.nonzeroBlocks*blockSize*4) / took.Seconds() / 1e9
}

// protocolRungs runs the machine-only and codec-in-the-loop rungs and,
// from the packets the machines actually emitted, the wire codec rung.
func protocolRungs(wl *workload, in *inputs, tr *tracer, budget time.Duration, m map[string]float64) error {
	bufs := cloneInputs(in)
	var views [][]*protocol.DenseView
	if wl.kind != kindKV {
		views = denseViews(wl, bufs)
	}
	blocks := float64(workers * ((wl.elems + blockSize - 1) / blockSize))

	// Machine-only: EmitBuf -> HandlePacket, no encode, no goroutines.
	l := newLadder(wl)
	op := func(name string, l *ladder, st *ladderStats) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			restore(bufs, in)
			var took time.Duration
			var err error
			tr.rung(name, func() { took, *st, err = l.replayOp(wl, in, bufs, views) })
			return took, err
		}
	}
	var st ladderStats
	if _, err := op("protocol.warmup", l, &st)(); err != nil {
		return err
	}
	n, took, err := repeat(budget, op("protocol.machine_only", l, &st))
	if err != nil {
		return err
	}
	m["protocol.machine_only_ms_per_op"] = ms(took) / float64(n)
	sampled(m, float64(n), "protocol.machine_only_ms_per_op")
	// One more op with the heap counted around the machine loop alone.
	l.audit = true
	if _, err := op("protocol.alloc_audit", l, &st)(); err != nil {
		return err
	}
	m["protocol.allocs_per_op"] = float64(st.mallocs)
	m["protocol.rounds_per_op"] = float64(st.rounds)
	m["protocol.blocks_sent_per_op"] = float64(st.blocksSent)
	if wl.kind == kindKV {
		m["protocol.kv_machine_ms_per_op"] = m["protocol.machine_only_ms_per_op"]
	} else {
		m["protocol.lookahead_skip_ratio"] = float64(st.blocksSkipped) / blocks
	}

	// Codec in the loop: the same through Emit.Encode and DecodePacketInto.
	lc := newLadder(wl)
	lc.codec = true
	var captured [][]byte
	lc.capture = &captured
	if _, err := op("protocol.warmup", lc, &st)(); err != nil {
		return err
	}
	lc.capture = nil
	lc.encodes, lc.decodes, lc.wireBytes = 0, 0, 0
	n, took, err = repeat(budget, op("protocol.codec_loop", lc, &st))
	if err != nil {
		return err
	}
	m["protocol.codec_loop_ms_per_op"] = ms(took) / float64(n)
	sampled(m, float64(n), "protocol.codec_loop_ms_per_op", "wire.pkts_per_op", "wire.bytes_per_pkt")
	encodes, decodes := float64(lc.encodes)/float64(n), float64(lc.decodes)/float64(n)
	m["wire.pkts_per_op"] = decodes
	m["wire.bytes_per_pkt"] = ratio(float64(lc.wireBytes), float64(lc.decodes))

	// Wire codec alone, over the packets of one op.
	encNs, decNs := codecRung(captured, tr, budget)
	if wl.kind == kindKV {
		m["wire.kv_encode_ns_per_pkt"], m["wire.kv_decode_ns_per_pkt"] = encNs, decNs
	} else {
		m["wire.encode_ns_per_pkt"], m["wire.decode_ns_per_pkt"] = encNs, decNs
	}
	m["budget.codec_ms_per_op"] = (encodes*encNs + decodes*decNs) / 1e6

	if wl.checkpoint {
		ls := newLadder(wl)
		ls.snapshot = true
		// Fill the aggregators' result archives first: a checkpoint grows
		// until they are full (see settleOps).
		for i := 0; i < warmupOps+settleOps; i++ {
			if _, err := op("protocol.warmup", ls, &st)(); err != nil {
				return err
			}
		}
		ls.snapNs = 0
		n, _, err = repeat(budget, op("protocol.checkpoint_snapshot", ls, &st))
		if err != nil {
			return err
		}
		m["protocol.checkpoint_snapshot_ms_per_op"] = float64(ls.snapNs) / 1e6 / float64(n)
	}
	return nil
}

// codecRung times DecodePacketInto and AppendPacket (or the sparse pair)
// over one op's captured encodings and returns ns per packet for each.
func codecRung(captured [][]byte, tr *tracer, budget time.Duration) (encNs, decNs float64) {
	if len(captured) == 0 {
		return 0, 0
	}
	var p wire.Packet
	var sp wire.SparsePacket
	var arena []float32
	n, took, _ := repeat(budget/2, func() (time.Duration, error) {
		return tr.rung("wire.Decode", func() {
			for _, b := range captured {
				if t := wire.PeekType(b); t == wire.TypeData || t == wire.TypeResult {
					arena, _ = wire.DecodePacketInto(&p, arena, b)
				} else {
					_ = wire.DecodeSparsePacketInto(&sp, b)
				}
			}
		}), nil
	})
	decNs = float64(took) / float64(n*len(captured))

	// Encoding needs the packets back: decode each into storage of its own
	// (untimed), then time re-encoding them all.
	var dense []*wire.Packet
	var sparse []*wire.SparsePacket
	for _, b := range captured {
		if t := wire.PeekType(b); t == wire.TypeData || t == wire.TypeResult {
			if q, err := wire.DecodePacket(b); err == nil {
				dense = append(dense, q)
			}
		} else if q, err := wire.DecodeSparsePacket(b); err == nil {
			sparse = append(sparse, q)
		}
	}
	var out []byte
	n, took, _ = repeat(budget/2, func() (time.Duration, error) {
		return tr.rung("wire.Append", func() {
			for _, q := range dense {
				out = wire.AppendPacket(out[:0], q)
			}
			for _, q := range sparse {
				out = wire.AppendSparsePacket(out[:0], q)
			}
		}), nil
	})
	encNs = float64(took) / float64(n*(len(dense)+len(sparse)))
	return encNs, decNs
}

// clusterP50 sets a second cluster up for wl (same seed, so the same
// tensors), lets it settle, and returns its untraced op_ms_p50 over d.
func clusterP50(wl *workload, cfg config, d time.Duration, build func(*workload, *inputs) (*rig, error)) (float64, error) {
	r, err := newRunner(wl, cfg.seed, cfg.deadline, build)
	if err != nil {
		return 0, err
	}
	r.settle()
	t := r.runTrial(d)
	if err := r.close(); err != nil {
		return 0, err
	}
	if t.failed > 0 {
		return 0, fmt.Errorf("%s: %d failed ops on a comparison cluster", wl.name, t.failed)
	}
	return t.metrics(r.in.opBytes)["op_ms_p50"], nil
}

// handoffFabric is the "no fabric" of the driver-no-fabric rung: Send
// copies the message (the Conn contract) and hands it to the receiver's
// Recv through an unbuffered channel — one goroutine hop, no queue, no
// lock, nothing to drain.
func handoffFabric(ids []int) (map[int]transport.Conn, error) {
	eps := map[int]*handoffConn{}
	for _, id := range ids {
		eps[id] = &handoffConn{id: id, peers: eps, in: make(chan transport.Message), closed: make(chan struct{})}
	}
	out := map[int]transport.Conn{}
	for id, c := range eps {
		out[id] = c
	}
	return out, nil
}

type handoffConn struct {
	id     int
	peers  map[int]*handoffConn // read-only once the fabric is built
	in     chan transport.Message
	closed chan struct{}
	once   sync.Once
}

func (c *handoffConn) LocalID() int { return c.id }

func (c *handoffConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *handoffConn) Send(to int, data []byte) error {
	dst := c.peers[to]
	if dst == nil {
		return fmt.Errorf("%w: %d", transport.ErrUnknownPeer, to)
	}
	buf := transport.GetBuf(len(data))
	copy(buf, data)
	select {
	case dst.in <- transport.Message{From: c.id, Data: buf}:
		return nil
	case <-dst.closed: // receiver gone: a datagram dying in flight
		transport.PutBuf(buf)
		return nil
	case <-c.closed:
		transport.PutBuf(buf)
		return transport.ErrClosed
	}
}

func (c *handoffConn) Recv() (transport.Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.closed:
		return transport.Message{}, transport.ErrClosed
	}
}

// pingPong bounces each payload between two endpoints of fab, one after
// the other, and returns each one's round-trip time in microseconds.
func pingPong(fab fabric, budget time.Duration, payloads ...[]byte) ([]float64, error) {
	eps, err := fab([]int{0, 1})
	if err != nil {
		return nil, err
	}
	a, b := eps[0], eps[1]
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			msg, err := b.Recv()
			if err != nil {
				return
			}
			err = b.Send(0, msg.Data)
			transport.PutBuf(msg.Data)
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		a.Close()
		b.Close()
		<-echoDone
	}()
	const bounces = 100
	var rtts []float64
	for _, payload := range payloads {
		n, took, err := repeat(budget/time.Duration(len(payloads)), func() (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < bounces; i++ {
				if err := a.Send(1, payload); err != nil {
					return 0, err
				}
				msg, err := a.Recv()
				if err != nil {
					return 0, err
				}
				transport.PutBuf(msg.Data)
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, float64(took)/1e3/float64(n*bounces))
	}
	return rtts, nil
}

// transportRungs measures the fabrics bare: a ping-pong of a max-size and
// a 64-byte message on the workload's own, a max-size one on the no-fabric
// rung's hand-off (what a message costs there, so the budget can take it
// out of the driver's row), and (channel fabric) a one-way stream.
func transportRungs(wl *workload, budget time.Duration, m map[string]float64) error {
	big := make([]byte, wire.MaxPacketLen(8, blockSize)) // 8 fused blocks: the default packet
	rtts, err := pingPong(fabricOf(wl), budget/2, big, big[:smallMessage])
	if err != nil {
		return err
	}
	if wl.udp {
		m["transport.udp_rtt_us"], m["transport.udp_rtt_small_us"] = rtts[0], rtts[1]
	} else {
		m["transport.chan_rtt_us"], m["transport.chan_rtt_small_us"] = rtts[0], rtts[1]
	}
	if rtts, err = pingPong(handoffFabric, budget/4, big); err != nil {
		return err
	}
	m["budget.handoff_us_per_msg"] = rtts[0] / 2
	if wl.udp {
		return nil
	}

	// One-way stream through the channel fabric: how many max-size
	// messages per second one sender can push to one receiver.
	eps, err := chanFabric([]int{0, 1})
	if err != nil {
		return err
	}
	src, dst := eps[0], eps[1]
	const burst = 2000
	n, took, err := repeat(budget/2, func() (time.Duration, error) {
		sendErr := make(chan error, 1)
		t0 := time.Now()
		go func() {
			for i := 0; i < burst; i++ {
				if err := src.Send(1, big); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		for i := 0; i < burst; i++ {
			msg, err := dst.Recv()
			if err != nil {
				return 0, err
			}
			transport.PutBuf(msg.Data)
		}
		took := time.Since(t0)
		return took, <-sendErr
	})
	src.Close()
	dst.Close()
	if err != nil {
		return err
	}
	m["transport.chan_msgs_per_s"] = float64(n*burst) / took.Seconds()
	return nil
}

// tenantRungs times the scheduler hop every aggregator packet takes:
// DRR.Push + DRR.Pop with one backlogged flow (what the default job pays)
// and with four.
func tenantRungs(budget time.Duration, m map[string]float64) {
	for _, flows := range []int{1, 4} {
		d := tenant.NewDRR[int](0, 0, nil)
		cost := wire.MaxPacketLen(8, blockSize)
		const batch = 1024
		n, took, _ := repeat(budget, func() (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < batch; i += flows {
				for f := 0; f < flows; f++ {
					d.Push(uint32(f), i, cost)
				}
				for f := 0; f < flows; f++ {
					d.Pop()
				}
			}
			return time.Since(t0), nil
		})
		d.Close()
		m[fmt.Sprintf("tenant.drr_ns_per_item_%dflow", flows)] = float64(took) / float64(n*batch)
	}
}

// commRig puts one collective.Comm per worker on the channel fabric; op
// is one rank's share of the comparator collective.
func commRig(in *inputs, op func(r *rig, c *collective.Comm, w int) error) (*rig, error) {
	var ids []int
	for w := 0; w < workers; w++ {
		ids = append(ids, w)
	}
	eps, err := chanFabric(ids)
	if err != nil {
		return nil, err
	}
	r := newRigBuffers(in)
	r.close = func() error {
		for _, c := range eps {
			c.Close()
		}
		return nil
	}
	comms := make([]*collective.Comm, workers)
	for w := range comms {
		if comms[w], err = collective.NewComm(eps[w], workers); err != nil {
			r.close()
			return nil, err
		}
	}
	r.op = func(w int) error { return op(r, comms[w], w) }
	return r, nil
}

// collectiveRungs runs the paper's two comparators on the same inputs, the
// same fabric and the same harness as the live op: inputs restored before
// the clock starts, workers released together, every result verified.
func collectiveRungs(wl *workload, cfg config, d time.Duration, m map[string]float64) error {
	ring, err := clusterP50(wl, cfg, d, func(_ *workload, in *inputs) (*rig, error) {
		return commRig(in, func(r *rig, c *collective.Comm, w int) error { return c.RingAllReduce(r.work[w]) })
	})
	if err != nil {
		return err
	}
	// AGsparse pays the dense-to-sparse conversion, as in the paper's
	// Fig 8 accounting and this repo's exp.LiveComparison.
	ag, err := clusterP50(wl, cfg, d, func(_ *workload, in *inputs) (*rig, error) {
		r, err := commRig(in, func(r *rig, c *collective.Comm, w int) (err error) {
			r.kvOut[w], err = c.AGsparseAllReduce(tensor.FromDense(tensor.FromSlice(r.work[w])))
			return err
		})
		if err != nil {
			return nil, err
		}
		r.verify = func() bool {
			for _, out := range r.kvOut {
				if out == nil || !out.ToDense().Equal(tensor.FromSlice(in.ref)) {
					return false
				}
			}
			return true
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	m["collective.ring_op_ms_p50"] = ring
	m["collective.agsparse_op_ms_p50"] = ag
	m["collective.speedup_vs_ring"] = ratio(ring, m["obs.untraced_op_ms_p50"])
	fmt.Printf("%s: collective.speedup_vs_ring base: ring op_ms_p50 = %.4f ms over omnireduce %.4f ms\n", wl.name, ring, m["obs.untraced_op_ms_p50"])
	return nil
}

// printLayers prints every per-layer metric and the budget table.
func printLayers(results []*result) {
	for _, res := range results {
		fmt.Printf("\n== %s (%s) ==\n", res.Name, res.Traffic)
		for _, spec := range perLayer {
			fmt.Printf("  %-42s %16.4f %s\n", spec.name, res.Metrics[spec.name].Value, spec.unit)
		}
		fmt.Printf("  budget against traced op_ms_p50 = %.4f ms\n", res.Metrics["budget.op_ms_p50_traced"].Value)
		fmt.Printf("  %-32s %12s %8s\n", "rung", "ms/op", "share")
		for _, row := range res.Budget {
			fmt.Printf("  %-32s %12.4f %7.1f%%\n", row.Rung, row.Ms, 100*row.Share)
		}
	}
}
