package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
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
	keys    []int32 // copy-path sparse keys
}

// decode decodes buf, a data or result packet of either format, into the
// matching reusable shell as a view of buf. It is both drivers' one
// decoder: which types a machine reads, and from whom, is the machine's
// check (HandleMsg, AggregatorMachine.HandlePacket). Any other type is an
// error.
func (d *decodeState) decode(buf []byte) (protocol.Msg, error) {
	switch t := wire.PeekType(buf); t {
	case wire.TypeData, wire.TypeResult:
		arena, err := wire.DecodePacketView(&d.pkt, d.scratch, buf)
		if err != nil {
			return protocol.Msg{}, fmt.Errorf("decode: %w", err)
		}
		d.scratch = arena
		return protocol.Msg{Dense: &d.pkt}, nil
	case wire.TypeSparseData, wire.TypeSparseResult:
		keys, vals, err := wire.DecodeSparsePacketView(&d.sparse, d.keys, d.scratch, buf)
		if err != nil {
			return protocol.Msg{}, fmt.Errorf("decode sparse: %w", err)
		}
		d.keys, d.scratch = keys, vals
		return protocol.Msg{Sparse: &d.sparse}, nil
	default:
		return protocol.Msg{}, fmt.Errorf("unexpected message type %d", t)
	}
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
