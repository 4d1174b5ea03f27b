// Package omnireduce is an efficient sparse collective communication
// library: a Go implementation of OmniReduce (Fei et al., SIGCOMM 2021).
//
// OmniReduce is a streaming aggregation system that accelerates AllReduce
// on sparse data by transmitting only non-zero blocks. Input tensors are
// split into fixed-size blocks; one or more aggregator nodes coordinate
// the workers through a self-clocked "next non-zero block" protocol, so
// zero blocks never cross the network and bandwidth use stays optimal
// even for dense inputs.
//
// # Quick start
//
// The simplest deployment is in-process (one goroutine per participant):
//
//	cluster, _ := omnireduce.NewLocalCluster(omnireduce.Options{Workers: 4})
//	defer cluster.Close()
//	// On each worker goroutine w:
//	grad := ...                       // []float32, sparse or dense
//	_ = cluster.Worker(w).AllReduce(grad) // grad now holds the global sum
//
// Cross-process deployments use the same Worker/Aggregator APIs over the
// TCP or UDP transports; see cmd/aggregator and cmd/worker.
//
// Collectives are SPMD: every worker must call the same operations in the
// same order with equal-length tensors.
package omnireduce

import (
	"fmt"
	"sync"
	"time"

	"omnireduce/internal/core"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Options configures a deployment. The zero value of every field selects
// the library default; for the block geometry (BlockSize, FusionWidth,
// Streams) that is internal/protocol's Defaults, the one place those
// numbers are written down.
type Options struct {
	// Workers is the number of worker processes (required).
	Workers int
	// Aggregators is the number of aggregator shards (default 1).
	Aggregators int
	// BlockSize is the elements per block.
	BlockSize int
	// FusionWidth is the number of blocks fused per packet.
	FusionWidth int
	// Streams is the number of parallel aggregation streams.
	Streams int
	// DeterministicOrder enforces bit-reproducible reduction order (§7)
	// on the block path. AllReduceSparse (Algorithm 3) does not take it:
	// it sums in arrival order.
	DeterministicOrder bool
	// SwitchMode emulates a programmable-switch aggregator: fixed-point
	// accumulation at the given scale (e.g. 1<<16). Zero disables.
	SwitchMode float64
	// HalfPrecision transmits blocks as IEEE 754 binary16, halving
	// communication volume at mixed-precision accuracy.
	HalfPrecision bool
	// RetransmitTimeout tunes loss recovery on unreliable transports.
	RetransmitTimeout time.Duration
	// MaxRetries bounds per-packet retransmissions on unreliable
	// transports; zero retries forever.
	MaxRetries int
	// StallTimeout arms a per-collective stall watchdog: an operation
	// receiving no results for this long fails with a postmortem capture
	// instead of hanging silently. Zero disables the watchdog.
	StallTimeout time.Duration
	// PostmortemDir is where stall postmortem bundles are written, one
	// JSON file per stalled operation. Empty keeps the bundle in the
	// returned *StallError without touching the filesystem.
	PostmortemDir string
	// Tenants sets per-tenant quotas and scheduling weights for
	// multi-tenant aggregators (see Worker.OpenJob). Tenants absent from
	// the map get DefaultQuota; a nil map leaves every tenant unlimited
	// with weight 1.
	Tenants map[string]TenantQuota
	// DefaultQuota applies to tenants not listed in Tenants.
	DefaultQuota TenantQuota
	// ViewEpoch > 0 enables dynamic membership: the node starts under an
	// epoch-numbered group view (workers 0..Workers-1, aggregators in
	// shard order), workers bind their connections to the epoch, and
	// aggregators refuse stale-epoch traffic with typed refusals. Zero
	// keeps the legacy static membership.
	ViewEpoch uint32
	// CheckpointPeers lists standby aggregator node IDs this aggregator
	// mirrors every committed result to, before the workers get it
	// (aggregator-only). A mirror frame is the result plus 16 bytes, so it
	// travels over whatever transport the results do, UDP included.
	CheckpointPeers []int
	// Standby starts an aggregator passive: it stores the results
	// mirrored to it and refuses data until Aggregator.Activate (or an
	// in-band view announcement) promotes it. Aggregator-only; requires
	// ViewEpoch > 0.
	Standby bool
}

func (o Options) coreConfig(reliable bool, aggIDs []int) core.Config {
	var tcfg *tenant.Config
	if len(o.Tenants) > 0 || o.DefaultQuota != (TenantQuota{}) {
		tc := tenant.Config{
			Tenants: make(map[string]tenant.Quota, len(o.Tenants)),
			Default: tenant.Quota(o.DefaultQuota),
		}
		for name, q := range o.Tenants {
			tc.Tenants[name] = tenant.Quota(q)
		}
		tcfg = &tc
	}
	var view *protocol.View
	if o.ViewEpoch > 0 {
		v := protocol.View{Epoch: o.ViewEpoch, Aggregators: append([]int(nil), aggIDs...)}
		for w := 0; w < o.Workers; w++ {
			v.Workers = append(v.Workers, w)
		}
		view = &v
	}
	return core.Config{
		Tenancy:            tcfg,
		Workers:            o.Workers,
		Aggregators:        aggIDs,
		BlockSize:          o.BlockSize,
		FusionWidth:        o.FusionWidth,
		Streams:            o.Streams,
		Reliable:           reliable,
		DeterministicOrder: o.DeterministicOrder,
		QuantizeScale:      o.SwitchMode,
		HalfPrecision:      o.HalfPrecision,
		RetransmitTimeout:  o.RetransmitTimeout,
		MaxRetries:         o.MaxRetries,
		StallTimeout:       o.StallTimeout,
		PostmortemDir:      o.PostmortemDir,
		View:               view,
		CheckpointPeers:    append([]int(nil), o.CheckpointPeers...),
		Standby:            o.Standby,
	}
}

// Worker is a participant handle. It wraps the core protocol worker with
// the public tensor types.
type Worker struct {
	w *core.Worker
}

// AllReduce sums data element-wise across all workers in place.
func (w *Worker) AllReduce(data []float32) error { return w.w.AllReduce(data) }

// Broadcast distributes root's data to every worker in place.
func (w *Worker) Broadcast(data []float32, root int) error { return w.w.Broadcast(data, root) }

// AllGather concatenates each worker's segment into out (length
// len(segment) * Workers) on every worker.
func (w *Worker) AllGather(segment, out []float32) error { return w.w.AllGather(segment, out) }

// HierarchicalAllReduce sums every device tensor across all devices of
// all workers (the §5 multi-GPU two-layer scheme): devices on this node
// are reduced in process, one inter-node AllReduce runs on the combined
// gradient, and the result is broadcast back to every device tensor.
func (w *Worker) HierarchicalAllReduce(locals [][]float32) error {
	return w.w.HierarchicalAllReduce(locals)
}

// AllReduceSparse sums COO sparse tensors across workers and returns the
// global sum in COO form (Algorithm 3's key-value block format). An input
// that is not a well-formed SparseTensor (see there) fails with an error
// wrapping ErrKeyOrder before anything is sent.
func (w *Worker) AllReduceSparse(in *SparseTensor) (*SparseTensor, error) {
	out, err := w.w.AllReduceSparse(in.coo())
	if err != nil {
		return nil, err
	}
	return &SparseTensor{Dim: out.Dim, Keys: out.Keys, Values: out.Values}, nil
}

// AllReduceAsync starts an AllReduce and returns a handle; data must not
// be touched until Wait returns, at which point it holds the global sum.
// Several operations may be in flight at once (gradient-bucket
// pipelining), started in the same order on every worker.
func (w *Worker) AllReduceAsync(data []float32) (*Pending, error) {
	p, err := w.w.AllReduceAsync(data)
	if err != nil {
		return nil, err
	}
	return &Pending{p: p}, nil
}

// Pending is an in-flight asynchronous collective.
type Pending struct{ p *core.Pending }

// Wait blocks until the collective completes and returns its error.
func (p *Pending) Wait() error { return p.p.Wait() }

// Stats returns the worker's traffic counters over its finished collectives.
func (w *Worker) Stats() Stats {
	s := w.w.Stats.Snapshot()
	return Stats{
		BlocksSent:   s.BlocksSent,
		PacketsSent:  s.PacketsSent,
		BytesSent:    s.BytesSent,
		Retransmits:  s.Retransmits,
		Backoffs:     s.Backoffs,
		AcksSent:     s.AcksSent,
		ResultsRecvd: s.ResultsRecvd,
		StaleResults: s.StaleResults,
	}
}

// Stats mirrors the protocol counters. Retransmits counts timer-driven
// re-sends only (PacketsSent counts every transmission including those);
// Backoffs counts retransmission-timeout increases under sustained loss;
// StaleResults counts received result packets discarded as duplicates or
// stale versions.
type Stats struct {
	BlocksSent   int64
	PacketsSent  int64
	BytesSent    int64
	Retransmits  int64
	Backoffs     int64
	AcksSent     int64
	ResultsRecvd int64
	StaleResults int64
}

// PumpStats reports the worker receive pump's routing decisions:
// messages delivered to live collectives, stale results dropped after
// their operation finished, messages dropped because a collective's
// queue overflowed (repaired by retransmission on unreliable
// transports), and undecodable packets.
type PumpStats struct {
	Delivered     int64
	StaleDrops    int64
	OverflowDrops int64
	BadPackets    int64
}

// PumpStats returns the worker's receive-pump counters.
func (w *Worker) PumpStats() PumpStats {
	p := w.w.PumpSnapshot()
	return PumpStats{
		Delivered:     p.Delivered,
		StaleDrops:    p.StaleDrops,
		OverflowDrops: p.OverflowDrops,
		BadPackets:    p.BadPackets,
	}
}

// SparseTensor is a coordinate-list sparse tensor: Keys strictly
// ascending, each in [0, Dim), Values aligned with Keys, Dim the dense
// length. AllReduceSparse refuses any other with ErrKeyOrder.
type SparseTensor struct {
	Dim    int
	Keys   []int32
	Values []float32
}

// ErrKeyOrder reports a SparseTensor whose keys are not strictly
// ascending in [0, Dim), or whose keys and values differ in number.
var ErrKeyOrder = tensor.ErrKeyOrder

func (s *SparseTensor) coo() *tensor.COO {
	return &tensor.COO{Dim: s.Dim, Keys: s.Keys, Values: s.Values}
}

// Dense materializes the sparse tensor.
func (s *SparseTensor) Dense() []float32 { return s.coo().ToDense().Data }

// FromDense extracts the non-zero elements of v.
func FromDense(v []float32) *SparseTensor {
	c := tensor.FromDense(tensor.FromSlice(v))
	return &SparseTensor{Dim: c.Dim, Keys: c.Keys, Values: c.Values}
}

// LocalCluster is an in-process deployment: Workers worker endpoints plus
// aggregator goroutines over a channel fabric, ideal for testing,
// experimentation, and single-machine multi-goroutine training.
type LocalCluster struct {
	workers  []*Worker
	conns    []transport.Conn
	aggConns []transport.Conn
	wg       sync.WaitGroup
	errMu    sync.Mutex
	aggErr   error
}

// NewLocalCluster starts an in-process cluster.
func NewLocalCluster(o Options) (*LocalCluster, error) {
	if o.Workers <= 0 {
		return nil, fmt.Errorf("omnireduce: Workers must be positive")
	}
	aggs := o.Aggregators
	if aggs <= 0 {
		aggs = 1
	}
	aggIDs := make([]int, aggs)
	for i := range aggIDs {
		aggIDs[i] = o.Workers + i
	}
	cfg := o.coreConfig(true, aggIDs)
	nw := transport.NewNetwork(o.Workers, 4096)
	lc := &LocalCluster{}
	for _, id := range aggIDs {
		conn := nw.AddNode(id)
		agg, err := core.NewAggregator(conn, cfg)
		if err != nil {
			return nil, err
		}
		lc.aggConns = append(lc.aggConns, conn)
		lc.wg.Add(1)
		go func() {
			defer lc.wg.Done()
			if err := agg.Run(); err != nil {
				lc.errMu.Lock()
				if lc.aggErr == nil {
					lc.aggErr = err
				}
				lc.errMu.Unlock()
			}
		}()
	}
	for i := 0; i < o.Workers; i++ {
		conn := nw.Conn(i)
		w, err := core.NewWorker(conn, cfg)
		if err != nil {
			return nil, err
		}
		lc.conns = append(lc.conns, conn)
		lc.workers = append(lc.workers, &Worker{w: w})
	}
	return lc, nil
}

// Worker returns worker w's handle. Each handle must be driven by a
// single goroutine.
func (lc *LocalCluster) Worker(w int) *Worker { return lc.workers[w] }

// Size returns the number of workers.
func (lc *LocalCluster) Size() int { return len(lc.workers) }

// Close shuts down the cluster and reports any aggregator failure.
func (lc *LocalCluster) Close() error {
	// Close workers (not just their conns) so each releases its pooled
	// per-connection op state back to the pools the leak audit reconciles.
	for _, w := range lc.workers {
		w.Close()
	}
	for _, c := range lc.conns {
		c.Close()
	}
	for _, c := range lc.aggConns {
		c.Close()
	}
	lc.wg.Wait()
	lc.errMu.Lock()
	defer lc.errMu.Unlock()
	return lc.aggErr
}

// NewTCPWorker joins a cross-process job as worker id over TCP (the
// reliable fabric; Algorithm 1 without timers). addrs maps every node ID
// — workers 0..Workers-1 and aggregators Workers..Workers+Aggregators-1 —
// to a host:port.
func NewTCPWorker(id int, addrs map[int]string, o Options) (*Worker, error) {
	tr, err := transport.NewTCP(id, addrs)
	if err != nil {
		return nil, err
	}
	w, err := core.NewWorker(tr, o.coreConfig(true, aggIDsFrom(o)))
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &Worker{w: w}, nil
}

// NewUDPWorker joins over UDP (the unreliable fabric; Algorithm 2 loss
// recovery active). A packet shape whose full data packet does not fit in
// one datagram is refused (see udpShape).
func NewUDPWorker(id int, addrs map[int]string, o Options) (*Worker, error) {
	if err := udpShape(o); err != nil {
		return nil, err
	}
	tr, err := transport.NewUDP(id, addrs)
	if err != nil {
		return nil, err
	}
	w, err := core.NewWorker(tr, o.coreConfig(false, aggIDsFrom(o)))
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &Worker{w: w}, nil
}

// udpShape refuses a packet shape a UDP fabric cannot carry: one whose
// full data packet, every one of FusionWidth columns a block of BlockSize
// elements (float32, or binary16 with HalfPrecision), encodes larger than
// transport.MaxDatagram. A worker sends such a packet whenever a packet's
// blocks are all non-zero, and the kernel refuses every send of it.
func udpShape(o Options) error {
	c := protocol.Config{BlockSize: o.BlockSize, FusionWidth: o.FusionWidth}.WithDefaults()
	dtype := wire.DTypeF32
	if o.HalfPrecision {
		dtype = wire.DTypeF16
	}
	if n := wire.FullPacketLen(c.FusionWidth, c.BlockSize, dtype); n > transport.MaxDatagram {
		return fmt.Errorf("omnireduce: a full data packet of %d x %d elements encodes to %d bytes, more than a UDP datagram carries (%d)", c.FusionWidth, c.BlockSize, n, transport.MaxDatagram)
	}
	return nil
}

// Aggregator is a standalone aggregator node for cross-process jobs.
type Aggregator struct {
	agg  *core.Aggregator
	conn transport.Conn
}

// NewTCPAggregator starts aggregator node id (>= Workers) over TCP.
func NewTCPAggregator(id int, addrs map[int]string, o Options) (*Aggregator, error) {
	tr, err := transport.NewTCP(id, addrs)
	if err != nil {
		return nil, err
	}
	agg, err := core.NewAggregator(tr, o.coreConfig(true, aggIDsFrom(o)))
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &Aggregator{agg: agg, conn: tr}, nil
}

// NewUDPAggregator starts aggregator node id over UDP, refusing a packet
// shape as NewUDPWorker does.
func NewUDPAggregator(id int, addrs map[int]string, o Options) (*Aggregator, error) {
	if err := udpShape(o); err != nil {
		return nil, err
	}
	tr, err := transport.NewUDP(id, addrs)
	if err != nil {
		return nil, err
	}
	agg, err := core.NewAggregator(tr, o.coreConfig(false, aggIDsFrom(o)))
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &Aggregator{agg: agg, conn: tr}, nil
}

// Run serves until Close (or a protocol error).
func (a *Aggregator) Run() error { return a.agg.Run() }

// Addr returns the aggregator's bound listen address (useful with ":0").
// Empty for transports without a listener address.
func (a *Aggregator) Addr() string {
	type addresser interface{ Addr() string }
	if ad, ok := a.conn.(addresser); ok {
		return ad.Addr()
	}
	return ""
}

// Close shuts the aggregator's endpoint; a concurrent Run returns nil.
func (a *Aggregator) Close() error { return a.conn.Close() }

// Activate installs view epoch with the given membership on this
// aggregator and announces it to every member: the failover takeover
// step, promoting a standby or re-shaping an active aggregator's view.
// A promoted standby takes the place of the aggregator the previous view
// listed at its position and resumes from the results that node mirrored
// to it: each slot at the round after its last result, finished tensors
// replayable, anything half-collected re-sent by the workers. That covers
// a kill at any point of a collective on unreliable transports
// (Algorithm 2); on reliable ones (Algorithm 1 has no replay) hand over
// between collectives. The successor's counters start at zero. The epoch
// must be newer than the node's current one.
func (a *Aggregator) Activate(epoch uint32, workers, aggregators []int) error {
	return a.agg.Activate(protocol.View{
		Epoch:       epoch,
		Workers:     append([]int(nil), workers...),
		Aggregators: append([]int(nil), aggregators...),
	})
}

// Standby reports whether the aggregator is still a passive standby (not
// yet activated into a view that lists it).
func (a *Aggregator) Standby() bool { return a.agg.Standby() }

// CheckpointsFrom reports how many mirrored results from primary node
// `from` this standby holds (at most one per tensor in flight on a stream,
// plus the last few final results per stream) — orchestrators gate
// failover on the standby provably having state to take over from.
func (a *Aggregator) CheckpointsFrom(from int) int { return a.agg.CheckpointsFrom(from) }

func aggIDsFrom(o Options) []int {
	aggs := o.Aggregators
	if aggs <= 0 {
		aggs = 1
	}
	ids := make([]int, aggs)
	for i := range ids {
		ids[i] = o.Workers + i
	}
	return ids
}

// Close releases the worker's transport endpoint.
func (w *Worker) Close() error { return w.w.Close() }

// RegisterPeer adds (or replaces) a peer's transport address — the
// re-dial path when a view change introduces a standby aggregator the
// original address book never listed. Wildcard hosts are canonicalized
// exactly as constructor addresses are. No-op on transports that route
// by node ID.
func (w *Worker) RegisterPeer(id int, addr string) error { return w.w.RegisterPeer(id, addr) }

// Addr returns the worker's bound transport address (useful with ":0",
// where the real port is only known after binding). Empty for transports
// without a listener address.
func (w *Worker) Addr() string { return w.w.LocalAddr() }

// RegisterPeer adds or updates a peer address binding on transports that
// support late registration (UDP), for ":0"-style setups where addresses
// are exchanged after binding.
func (a *Aggregator) RegisterPeer(id int, addr string) error {
	type registrar interface{ RegisterPeer(int, string) error }
	if r, ok := a.conn.(registrar); ok {
		return r.RegisterPeer(id, addr)
	}
	return fmt.Errorf("omnireduce: transport does not support late peer registration")
}
