// Package protocol is the sans-I/O engine of the OmniReduce protocol:
// Algorithm 1 streaming aggregation, the §3.1.1 slot/stream scheduling,
// the §3.2 Block Fusion column layout, Algorithm 2's round-counter loss
// recovery, and Algorithm 3's sparse key-value mode — expressed as pure
// event-driven state machines with no goroutines, clocks, sockets, or
// buffers of encoded bytes inside.
//
// The machines are driven by their callers ("drivers"):
//
//   - WorkerMachine and AggregatorMachine consume decoded wire packets via
//     HandlePacket and wall-clock notifications via HandleTimeout, and
//     return []Emit — destination node IDs plus decoded packets annotated
//     with their exact encoded size (internal/wire's EncodedPacketSize).
//     Drivers hold a worker machine of either format (WorkerMachine,
//     SparseWorkerMachine) as a WorkerOp and feed it decoded Msgs.
//   - A driver owns all I/O: internal/core pumps real transport.Conn
//     messages through the machines and wakes them with a time.Timer
//     armed at NextTimeout, while internal/netsim/simproto feeds the same
//     machines from a discrete-event loop in virtual time, waking them
//     by the same rule and charging Emit.Size bytes to the simulated
//     fabric.
//
// Because both substrates execute this one implementation, the simulator
// cannot drift from the live protocol: round schedules, loss recovery, and
// packet sizes are decided here and only here.
package protocol

import (
	"fmt"
	"math"
	"time"

	"omnireduce/internal/wire"
)

// Config parameterizes the protocol machines. It mirrors core.Config's
// protocol-relevant fields; every participant in a job must agree on it.
type Config struct {
	// Workers is the number of worker nodes, with IDs 0..Workers-1.
	Workers int
	// Aggregators lists the aggregator node IDs. Stream s is served by
	// Aggregators[s % len(Aggregators)].
	Aggregators []int
	// BlockSize is the number of float32 elements per block.
	BlockSize int
	// FusionWidth is the number of blocks fused per packet (§3.2).
	FusionWidth int
	// Streams is the number of parallel aggregation streams (§3.1.1).
	Streams int
	// Reliable selects Algorithm 1 (in-order lossless fabric, silent
	// workers, no timers) over Algorithm 2 (acks, rounds, retransmission).
	Reliable bool
	// RetransmitTimeout is the initial per-packet loss-detection timer,
	// skewed per worker (WorkerMachine.firstTimeout).
	RetransmitTimeout time.Duration
	// RetransmitBackoff multiplies a stream's timeout after every
	// retransmission; >= 1 when set.
	RetransmitBackoff float64
	// RetransmitCeiling caps the backed-off timeout.
	RetransmitCeiling time.Duration
	// RetransmitJitter is the fractional jitter in [0,1) applied to
	// backed-off timeouts, drawn from a deterministic per-(worker, tensor)
	// source. Zero means the default; a negative value disables jitter
	// entirely, and WithDefaults keeps it negative, so that a config
	// completed twice (core.Config, then the machine) stays disabled.
	RetransmitJitter float64
	// MaxRetries bounds per-packet retransmissions; 0 retries forever.
	MaxRetries int
	// DeterministicOrder reduces contributions in worker-ID order (§7).
	// It covers the block path only; the key-value aggregator
	// (handleSparse) sums in arrival order whatever it says.
	DeterministicOrder bool
	// HalfPrecision transmits block data as IEEE 754 binary16.
	HalfPrecision bool
	// ForceDense disables zero-block elision (the SwitchML* baseline).
	ForceDense bool
	// QuantizeScale, when non-zero, accumulates in fixed-point int64 with
	// this scale (switch-ALU emulation, §7).
	QuantizeScale float64
}

// Defaults returns the default protocol parameters. This is the single
// source of defaults: core.Config (and through it omnireduce.Options and
// the cmd/worker and cmd/aggregator flags) fills its zero fields from it,
// so no two layers can silently diverge on a parameter.
//
// BlockSize and the retransmission constants are the paper's (§6). The
// packet shape — FusionWidth x Streams — is measured, not inherited: on
// the live fabrics the fixed cost per packet, not bytes, bounds a dense
// collective, so the default is the widest shape on which the dense,
// 99%-block-sparse and loopback-UDP sweeps of the root package's
// BenchmarkPacketShape agree (EXPERIMENTS.md, "Packet shape"). Width is
// free on sparse tensors because the bootstrap ships no zero blocks
// (WorkerMachine.Start). To move the default, re-run that benchmark.
func Defaults() Config {
	return Config{
		BlockSize:         256,
		FusionWidth:       32,
		Streams:           4,
		RetransmitTimeout: 20 * time.Millisecond,
		RetransmitBackoff: 2,
		RetransmitJitter:  0.1,
		// RetransmitCeiling is derived (16x the timeout) by WithDefaults.
	}
}

// WithDefaults fills zero fields with the Defaults values; the ceiling is
// derived from the (possibly overridden) timeout.
func (c Config) WithDefaults() Config {
	d := Defaults()
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.FusionWidth == 0 {
		c.FusionWidth = d.FusionWidth
	}
	if c.Streams == 0 {
		c.Streams = d.Streams
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = d.RetransmitTimeout
	}
	if c.RetransmitBackoff == 0 {
		c.RetransmitBackoff = d.RetransmitBackoff
	}
	if c.RetransmitCeiling == 0 {
		c.RetransmitCeiling = 16 * c.RetransmitTimeout
	}
	if c.RetransmitJitter == 0 {
		c.RetransmitJitter = d.RetransmitJitter
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("protocol: Workers must be positive, got %d", c.Workers)
	}
	if len(c.Aggregators) == 0 {
		return fmt.Errorf("protocol: at least one aggregator required")
	}
	if c.BlockSize < 0 || c.FusionWidth < 0 || c.FusionWidth > wire.MaxCols || c.Streams < 0 {
		return fmt.Errorf("protocol: invalid block/fusion/stream parameters")
	}
	if c.QuantizeScale < 0 {
		return fmt.Errorf("protocol: QuantizeScale must be non-negative")
	}
	if c.RetransmitBackoff != 0 && c.RetransmitBackoff < 1 {
		return fmt.Errorf("protocol: RetransmitBackoff must be >= 1, got %v", c.RetransmitBackoff)
	}
	if c.RetransmitJitter >= 1 {
		return fmt.Errorf("protocol: RetransmitJitter must be below 1 (negative disables it), got %v", c.RetransmitJitter)
	}
	if c.RetransmitCeiling < 0 || (c.RetransmitCeiling > 0 && c.RetransmitCeiling < c.RetransmitTimeout) {
		return fmt.Errorf("protocol: RetransmitCeiling %v below RetransmitTimeout %v", c.RetransmitCeiling, c.RetransmitTimeout)
	}
	return nil
}

// AggregatorFor returns the node ID serving stream s.
func (c Config) AggregatorFor(s int) int {
	return c.Aggregators[s%len(c.Aggregators)]
}

// Shard returns the global block range [lo, hi) owned by stream s when the
// tensor has nb blocks total and eff streams are active (§3.1.1:
// contiguous shards).
func Shard(s, eff, nb int) (lo, hi int) {
	lo = s * nb / eff
	hi = (s + 1) * nb / eff
	return lo, hi
}

// EffectiveStreams caps the stream count so every stream owns at least one
// block.
func EffectiveStreams(streams, nb int) int {
	if nb < streams {
		if nb == 0 {
			return 1
		}
		return nb
	}
	return streams
}

// Column layout (§3.2): within a stream's shard [lo, hi) of global block
// indices, column c holds the blocks b with b % width == c, in ascending
// order.

// ColOf returns the column of global block index b under fusion width w.
func ColOf(b uint32, w int) int { return int(b) % w }

// FirstInColumn returns the first global block index in [lo, hi) congruent
// to c mod w, or -1 if the column is empty.
func FirstInColumn(lo, hi, c, w int) int {
	// Smallest b >= lo with b % w == c.
	r := lo % w
	b := lo + ((c-r)%w+w)%w
	if b >= hi {
		return -1
	}
	return b
}

// NextNonZeroInColumn scans for the next non-zero block strictly after
// `after` within [lo, hi) staying in column c (stride w). A negative
// `after` starts the scan at the column's first block. nonZero is the
// block-occupancy predicate (a bitmap lookup, or constant true when
// forcing dense mode).
func NextNonZeroInColumn(nonZero func(b int) bool, after, lo, hi, c, w int) int {
	start := FirstInColumn(lo, hi, c, w)
	if start < 0 {
		return -1
	}
	b := start
	if after >= start {
		// Advance to the first column slot strictly after `after`.
		b = after + w
	}
	for ; b < hi; b += w {
		if nonZero(b) {
			return b
		}
	}
	return -1
}

// NextOffsetWire converts a block index (or -1 for none) to the wire
// next-offset encoding for column c.
func NextOffsetWire(b, c int) uint32 {
	if b < 0 {
		return wire.Inf(c)
	}
	return uint32(b)
}

// BlockLen returns the element count of global block b for a tensor of n
// elements and block size bs (the final block may be short).
func BlockLen(b, bs, n int) int {
	lo := b * bs
	hi := lo + bs
	if hi > n {
		hi = n
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Internal next-offset encoding: nextUnknown is Algorithm 1's -infinity
// initial value (the aggregator has not heard from this worker yet);
// nextDone means the worker/column has no further non-zero blocks.
const (
	nextUnknown int64 = -1
	nextDone    int64 = math.MaxInt64
)

// decodeNext converts a wire next-offset to the internal encoding.
func decodeNext(v uint32) int64 {
	if wire.IsInf(v) {
		return nextDone
	}
	return int64(v)
}

func minOf(v []int64) int64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
