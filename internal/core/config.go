// Package core is the live-substrate driver of the OmniReduce protocol:
// streaming sparse AllReduce via coordinated block aggregation
// (SIGCOMM '21, §3).
//
// The protocol itself — Algorithm 1 streaming, §3.1.1 slot/stream
// scheduling, §3.2 Block Fusion, Algorithm 2 loss recovery, and
// Algorithm 3 sparse key-value mode — lives in internal/protocol as pure
// event-driven state machines. This package owns only the I/O: it pumps
// real transport.Conn messages and wall-clock retransmission ticks through
// the machines, encodes their emitted packets, and mirrors their counters
// into the public Stats surfaces. The discrete-event simulator
// (internal/netsim/simproto) drives the same machines in virtual time, so
// the two substrates cannot diverge.
//
// The tensor is split into blocks of Config.BlockSize elements. Workers
// transmit only non-zero blocks; one or more aggregators coordinate, each
// telling the workers which block it needs next based on "next non-zero
// block" metadata the workers piggyback on every packet (Algorithm 1).
//
// Parallelism follows §3.1.1: the tensor is sharded into Config.Streams
// contiguous shards, each served by an independent aggregation stream that
// owns one aggregator slot; streams are distributed round-robin across the
// aggregator nodes. Within a stream, Block Fusion (§3.2) packs up to
// Config.FusionWidth blocks per packet, column-aligned in the stream's
// two-dimensional block layout.
//
// With Config.Reliable set (channel or TCP transports — the RDMA RC
// stand-in), the protocol of Algorithm 1 runs without timers. With
// Reliable unset (UDP), Algorithm 2's loss recovery runs: versioned slots,
// per-version seen/count state, empty ack packets for zero blocks, and
// worker retransmission timers.
package core

import (
	"fmt"
	"runtime"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
)

// Config parameterizes workers and aggregators. Every participant in a
// job must use an identical Config. A zero BlockSize, FusionWidth or
// Streams takes protocol.Defaults' value, which is stated there only.
type Config struct {
	// Workers is the number of worker nodes, with IDs 0..Workers-1.
	Workers int
	// Aggregators lists the aggregator node IDs. Stream s is served by
	// Aggregators[s % len(Aggregators)].
	Aggregators []int
	// BlockSize is the number of float32 elements per block.
	BlockSize int
	// FusionWidth is the number of blocks fused per packet, i.e. the
	// number of columns in each stream's block layout (§3.2).
	FusionWidth int
	// Streams is the number of parallel aggregation streams (the slot
	// pool size, §3.1.1).
	Streams int
	// Reliable indicates the transport delivers every message in order
	// (channel/TCP). When false, Algorithm 2 loss recovery is active.
	Reliable bool
	// RetransmitTimeout is the worker's initial per-packet loss-detection
	// timer (unreliable mode only). Default 20ms.
	RetransmitTimeout time.Duration
	// RetransmitBackoff multiplies a stream's timeout after every
	// retransmission (exponential backoff), so a worker facing a long
	// outage — a partition, a dead aggregator — backs off instead of
	// flooding the fabric at a fixed rate. The timeout resets to
	// RetransmitTimeout as soon as a result arrives. Default 2; must be
	// >= 1 when set.
	RetransmitBackoff float64
	// RetransmitCeiling caps the backed-off timeout. Default
	// 16*RetransmitTimeout.
	RetransmitCeiling time.Duration
	// RetransmitJitter is the fractional random jitter applied to every
	// backed-off timeout, in [0, 1): each retransmission waits
	// timeout*(1 ± jitter) to de-synchronize workers that lost the same
	// multicast. Drawn from a per-worker deterministic source, so runs
	// remain reproducible. Default 0.1.
	RetransmitJitter float64
	// MaxRetries bounds per-packet retransmissions in unreliable mode;
	// exceeding it fails the collective with an error (e.g. the
	// aggregator is gone). Zero means retry forever.
	MaxRetries int
	// DeterministicOrder makes aggregation numerically reproducible by
	// reducing worker contributions in worker-ID order (§7). It requires
	// buffering one contribution per worker per slot.
	DeterministicOrder bool
	// HalfPrecision transmits block data as IEEE 754 binary16 on the
	// wire, halving communication volume; the aggregator still
	// accumulates in float32. Results are quantized to fp16 on the way
	// back (the usual mixed-precision trade-off).
	HalfPrecision bool
	// ForceDense disables zero-block elision on the worker: every block
	// is treated as non-zero and transmitted. This turns the protocol into
	// a SwitchML-style dense streaming aggregation (§6.2.2's SwitchML*
	// baseline) while keeping the slot pipeline identical.
	ForceDense bool
	// QuantizeScale, when non-zero, makes aggregators accumulate in
	// fixed-point int64 arithmetic with this scale factor, emulating the
	// integer ALUs of a programmable switch (§7, Fig 18). Workers are
	// unaffected; results are de-quantized before multicast.
	QuantizeScale float64
	// AggShards is the number of goroutines an aggregator's Run loop
	// spreads slot processing across (dense traffic partitions by slot,
	// sparse by tensor ID; per-slot packet order is preserved). It is a
	// driver-level knob only — the protocol machines and the simulator
	// never see it, and aggregate statistics are identical for any value.
	// Default min(4, GOMAXPROCS); 1 runs one shard goroutine.
	AggShards int
	// OpQueueLen is the capacity of each in-flight collective's inbound
	// message queue on the worker (a driver-level knob, like AggShards).
	// The receive pump never blocks on a full queue: in unreliable mode
	// the overflowing message is dropped and repaired by Algorithm 2's
	// retransmission; in reliable mode the operation is failed with
	// ErrOpBackpressure. Default 1024.
	OpQueueLen int
	// StallTimeout arms the stall watchdog: an in-flight collective that
	// receives no aggregator result for this long is failed with a
	// *StallError (errors.Is ErrOpStalled) instead of hanging silently,
	// after snapshotting the flight recorder, metrics registry, pool
	// balances, and pump counters into a postmortem bundle. The watchdog
	// checks progress once per period, so detection takes at most
	// 2*StallTimeout after the last result. Zero disables the watchdog.
	StallTimeout time.Duration
	// PostmortemDir is where stall postmortem bundles are written, one
	// JSON file per stalled operation. Empty keeps the bundle in the
	// returned *StallError without touching the filesystem.
	PostmortemDir string
	// Tenancy is the aggregator's multi-tenant policy: per-tenant quotas
	// (max jobs, max in-flight collectives) and deficit-round-robin
	// weights for jobs sharing the merge shards. Nil applies the zero
	// policy — one implicit default tenant, unlimited, weight 1 — which
	// reproduces the pre-registry single-job behavior for the legacy API.
	// Workers ignore it.
	Tenancy *tenant.Config
	// View, when non-nil (and Epoch > 0), enables epoch-numbered group
	// membership: workers bind their connections to the view's epoch via
	// TypeViewAck, aggregators refuse traffic from connections bound to a
	// stale epoch with a typed TypeStaleEpoch refusal carrying the current
	// view, and both sides adopt newer views announced with TypeView. Nil
	// keeps the legacy static-membership behavior, bit for bit.
	View *protocol.View
	// CheckpointPeers lists standby aggregator node IDs this aggregator
	// mirrors its results to: every result that concludes a round is sent
	// to each peer, behind a 16-byte envelope, BEFORE it is sent to any
	// worker, so a standby always knows at least as much as any worker —
	// the output-commit rule failover correctness rests on. Those results
	// are all a successor needs (protocol.AggregatorMachine.AdoptResult).
	// A frame fits wherever a result does, so the link to a standby may be
	// any transport, datagrams included; a frame lost there costs the
	// successor one round of fast-forward. Empty disables mirroring;
	// workers ignore it. Primaries, standbys and workers must agree on
	// BlockSize: a standby drops results of any other geometry.
	CheckpointPeers []int
	// Standby starts an aggregator passive: it stores the results its
	// view's aggregators mirror to it and refuses data traffic with
	// stale-epoch refusals until Activate installs a view that lists it
	// (or a TypeView announcement arrives). Workers ignore it.
	Standby bool
}

// proto converts to the protocol-machine configuration, field for field.
func (c Config) proto() protocol.Config {
	return protocol.Config{
		Workers:            c.Workers,
		Aggregators:        c.Aggregators,
		BlockSize:          c.BlockSize,
		FusionWidth:        c.FusionWidth,
		Streams:            c.Streams,
		Reliable:           c.Reliable,
		RetransmitTimeout:  c.RetransmitTimeout,
		RetransmitBackoff:  c.RetransmitBackoff,
		RetransmitCeiling:  c.RetransmitCeiling,
		RetransmitJitter:   c.RetransmitJitter,
		MaxRetries:         c.MaxRetries,
		DeterministicOrder: c.DeterministicOrder,
		HalfPrecision:      c.HalfPrecision,
		ForceDense:         c.ForceDense,
		QuantizeScale:      c.QuantizeScale,
	}
}

// withDefaults fills zero fields from protocol.Defaults, the single
// source of paper-default parameters shared with the simulator.
func (c Config) withDefaults() Config {
	p := c.proto().WithDefaults()
	c.BlockSize = p.BlockSize
	c.FusionWidth = p.FusionWidth
	c.Streams = p.Streams
	c.RetransmitTimeout = p.RetransmitTimeout
	c.RetransmitBackoff = p.RetransmitBackoff
	c.RetransmitCeiling = p.RetransmitCeiling
	c.RetransmitJitter = p.RetransmitJitter
	if c.AggShards == 0 {
		c.AggShards = runtime.GOMAXPROCS(0)
		if c.AggShards > 4 {
			c.AggShards = 4
		}
	}
	if c.OpQueueLen == 0 {
		c.OpQueueLen = 1024
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.AggShards < 0 {
		return fmt.Errorf("core: AggShards must be >= 0, got %d", c.AggShards)
	}
	if c.OpQueueLen < 0 {
		return fmt.Errorf("core: OpQueueLen must be >= 0, got %d", c.OpQueueLen)
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("core: StallTimeout must be >= 0, got %v", c.StallTimeout)
	}
	if c.View != nil {
		if err := c.View.Validate(); err != nil {
			return err
		}
	}
	if c.Standby && c.View == nil {
		return fmt.Errorf("core: Standby requires a View (the refusals it answers data with must carry one)")
	}
	return c.proto().Validate()
}
