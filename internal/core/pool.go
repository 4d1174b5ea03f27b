package core

import (
	"sync"
	"sync/atomic"

	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
	"omnireduce/internal/wire"
)

func init() {
	obs.RegisterPool("core_decode_state", DecodePoolBalance)
}

// decodeState is the reusable receive-side decode state of one driver
// loop: a dense and a sparse packet shell, plus the arenas payloads are
// carved from when they cannot be decoded in place. The wire view decoders
// point the shells' payload slices into the message buffer where they can
// (float32 data, 4-byte-aligned buffer, little-endian build) and copy
// into the arenas otherwise, so a loop that owns a decodeState decodes
// every inbound packet without allocating, and on the usual path without
// copying.
//
// The decoded contents are valid only until the message buffer is
// released or the next decode with the same state, whichever is first —
// exactly the lifetime protocol machines need, since they copy
// everything they keep during HandlePacket (see protocol.Msg ownership).
// Drivers therefore release the buffer after HandlePacket, not before.
type decodeState struct {
	pkt     wire.Packet
	scratch []float32 // copy-path payloads: dense blocks, sparse values
	sparse  wire.SparsePacket
	keys    []uint32 // copy-path sparse keys
}

// decodeDense decodes buf into the reusable packet as a view of buf.
func (d *decodeState) decodeDense(buf []byte) (*wire.Packet, error) {
	arena, err := wire.DecodePacketView(&d.pkt, d.scratch, buf)
	if err != nil {
		return nil, err
	}
	d.scratch = arena
	return &d.pkt, nil
}

// decodeSparse decodes buf into the reusable sparse packet as a view of
// buf.
func (d *decodeState) decodeSparse(buf []byte) (*wire.SparsePacket, error) {
	keys, vals, err := wire.DecodeSparsePacketView(&d.sparse, d.keys, d.scratch, buf)
	if err != nil {
		return nil, err
	}
	d.keys, d.scratch = keys, vals
	return &d.sparse, nil
}

// decodePool recycles decodeStates across operations. Long-lived loops
// (the aggregator's shards) own one state for their lifetime; per-call
// loops (a worker's AllReduce goroutine) borrow one here so consecutive
// collectives reuse warmed arenas instead of re-growing them.
var decodePool sync.Pool

var decodePoolHits, decodePoolMisses, decodePoolPuts atomic.Int64

func getDecodeState() *decodeState {
	obs.Emit(obs.EvDecodeStateGet, 0, 0)
	if v := decodePool.Get(); v != nil {
		decodePoolHits.Add(1)
		return v.(*decodeState)
	}
	decodePoolMisses.Add(1)
	return &decodeState{}
}

func putDecodeState(d *decodeState) {
	decodePoolPuts.Add(1)
	obs.Emit(obs.EvDecodeStatePut, 0, 0)
	decodePool.Put(d)
}

// DecodePoolBalance reports cumulative borrow (get) and return (put)
// counts for the decode-state pool, registered with the obs pool-leak
// audit. Long-lived owners (aggregator shards) return their state at
// shutdown, so a quiesced system balances exactly.
func DecodePoolBalance() (gets, puts int64) {
	return decodePoolHits.Load() + decodePoolMisses.Load(), decodePoolPuts.Load()
}

// DecodePoolCounters exports the decode-state pool's tallies. After
// warm-up, hits should dominate: each miss is one fresh arena that has
// to re-grow to packet size.
func DecodePoolCounters() *metrics.Counters {
	c := metrics.NewCounters()
	c.Add("decode_pool_hits", decodePoolHits.Load())
	c.Add("decode_pool_misses", decodePoolMisses.Load())
	c.Add("decode_pool_puts", decodePoolPuts.Load())
	return c
}
