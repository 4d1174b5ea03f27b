package wire

import (
	"encoding/binary"
	"fmt"
)

// View-plane message types (elastic membership & failover). They extend
// the control plane's shared one-byte type prefix, so PeekType and the
// pumps route them without a full decode; DecodeControl's range check is
// untouched (view packets have their own format and decoder).
const (
	// TypeView announces a membership view (epoch + member IDs):
	// orchestrator->aggregator to activate a standby, and
	// aggregator->worker to propagate the change.
	TypeView uint8 = iota + 10
	// TypeViewAck is a worker->aggregator acknowledgment binding the
	// sender's connection to the acked epoch. Epoch stamping is per
	// connection, not per packet: membership changes orders of magnitude
	// less often than data flows, so the data-plane formats stay
	// untouched and the binding rides the handshake.
	TypeViewAck
	// TypeStaleEpoch is the typed refusal for traffic bound to a
	// concluded epoch. It carries the refusing side's full current view,
	// so the refusal doubles as anti-entropy: a worker that missed the
	// TypeView announcement learns the new membership from the refusal
	// itself and can rebind without another round-trip.
	TypeStaleEpoch
	// TypeCheckpoint mirrors one committed aggregator result to a standby:
	// a 16-byte envelope followed by the TypeResult packet itself, byte for
	// byte as the workers receive it. A frame is 16 bytes longer than the
	// result, so it fits wherever results do, datagrams included.
	TypeCheckpoint
)

// ReasonStaleEpoch extends the control-plane reason codes: the operation
// was refused because the sender's bound view epoch is stale.
// internal/tenant maps it to a typed error.
const ReasonStaleEpoch uint8 = 6

// MaxViewMembers bounds the member lists of an encoded view.
const MaxViewMembers = 0xFFFF

const viewHeaderLen = 16

// ViewPacket is a decoded view-plane message (TypeView, TypeViewAck,
// TypeStaleEpoch — one format for all three; member lists are empty on
// acks). TensorID is the refused operation for TypeStaleEpoch (0
// otherwise), kept at offset 4 like every non-dense format so the worker
// pump's tensor-ID peek routes refusals to the in-flight operation with
// the existing rule.
type ViewPacket struct {
	Type        uint8
	Reason      uint8
	WID         uint16 // sender's worker ID (acks); 0 otherwise
	TensorID    uint32
	Epoch       uint32
	Workers     []int32
	Aggregators []int32
}

// EncodedViewSize returns the exact byte length AppendView produces.
func EncodedViewSize(p *ViewPacket) int {
	return viewHeaderLen + 4*len(p.Workers) + 4*len(p.Aggregators)
}

// AppendView encodes p, appending to dst. Layout:
//
//	[0] type, [1] reason
//	[2] wid uint16
//	[4] tensorID uint32
//	[8] epoch uint32
//	[12] nworkers uint16, [14] naggregators uint16
//	[16] worker IDs (int32 each), then aggregator IDs
func AppendView(dst []byte, p *ViewPacket) []byte {
	if len(p.Workers) > MaxViewMembers || len(p.Aggregators) > MaxViewMembers {
		panic(fmt.Sprintf("wire: view member list too long (%d/%d)", len(p.Workers), len(p.Aggregators)))
	}
	dst, w := grow(dst, EncodedViewSize(p))
	w[0] = p.Type
	w[1] = p.Reason
	binary.LittleEndian.PutUint16(w[2:], p.WID)
	binary.LittleEndian.PutUint32(w[4:], p.TensorID)
	binary.LittleEndian.PutUint32(w[8:], p.Epoch)
	binary.LittleEndian.PutUint16(w[12:], uint16(len(p.Workers)))
	binary.LittleEndian.PutUint16(w[14:], uint16(len(p.Aggregators)))
	off := viewHeaderLen
	for _, id := range p.Workers {
		binary.LittleEndian.PutUint32(w[off:], uint32(id))
		off += 4
	}
	for _, id := range p.Aggregators {
		binary.LittleEndian.PutUint32(w[off:], uint32(id))
		off += 4
	}
	return dst
}

// DecodeView parses an encoded view packet. Member lists are copied out
// of buf, so buf may be recycled immediately (view traffic is off the
// datapath).
func DecodeView(buf []byte) (*ViewPacket, error) {
	if len(buf) < viewHeaderLen {
		return nil, ErrTruncated
	}
	p := &ViewPacket{
		Type:     buf[0],
		Reason:   buf[1],
		WID:      binary.LittleEndian.Uint16(buf[2:]),
		TensorID: binary.LittleEndian.Uint32(buf[4:]),
		Epoch:    binary.LittleEndian.Uint32(buf[8:]),
	}
	if p.Type < TypeView || p.Type > TypeStaleEpoch {
		return nil, fmt.Errorf("wire: not a view packet (type %d)", p.Type)
	}
	nw := int(binary.LittleEndian.Uint16(buf[12:]))
	na := int(binary.LittleEndian.Uint16(buf[14:]))
	if len(buf) < viewHeaderLen+4*(nw+na) {
		return nil, ErrTruncated
	}
	off := viewHeaderLen
	if nw > 0 {
		p.Workers = make([]int32, nw)
		for i := range p.Workers {
			p.Workers[i] = int32(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	if na > 0 {
		p.Aggregators = make([]int32, na)
		for i := range p.Aggregators {
			p.Aggregators[i] = int32(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	return p, nil
}

// CheckpointHeaderLen is the length of a TypeCheckpoint envelope. It is a
// multiple of four, so the result behind it is as aligned as the frame and
// DecodePacketView can alias it.
const CheckpointHeaderLen = 16

// CheckpointFrame is a TypeCheckpoint envelope: which shard of the primary
// committed the result, the tensor-ID namespace it belongs to, and the
// primary's view epoch at the time. Result is set by DecodeCheckpoint only.
type CheckpointFrame struct {
	Shard  uint16
	NS     uint32
	Epoch  uint32
	Result []byte // the encoded TypeResult packet; aliases the decoded buffer
}

// AppendCheckpoint encodes the envelope f followed by the result res,
// appending CheckpointHeaderLen + EncodedPacketSize(res) bytes to dst.
// Layout:
//
//	[0] type (TypeCheckpoint), [1] zero
//	[2] shard uint16
//	[4] namespace uint32
//	[8] epoch uint32
//	[12] result length uint32
//	[16] the result, as AppendPacket encodes it
func AppendCheckpoint(dst []byte, f *CheckpointFrame, res *Packet) []byte {
	dst, w := grow(dst, CheckpointHeaderLen)
	w[0] = TypeCheckpoint
	w[1] = 0
	binary.LittleEndian.PutUint16(w[2:], f.Shard)
	binary.LittleEndian.PutUint32(w[4:], f.NS)
	binary.LittleEndian.PutUint32(w[8:], f.Epoch)
	binary.LittleEndian.PutUint32(w[12:], uint32(EncodedPacketSize(res)))
	return AppendPacket(dst, res)
}

// DecodeCheckpoint parses a TypeCheckpoint envelope. Result is a view of
// buf, not a copy: it lives as long as buf does, and whoever keeps one
// keeps the other.
func DecodeCheckpoint(buf []byte) (CheckpointFrame, error) {
	if len(buf) < CheckpointHeaderLen {
		return CheckpointFrame{}, ErrTruncated
	}
	if buf[0] != TypeCheckpoint {
		return CheckpointFrame{}, fmt.Errorf("wire: not a checkpoint frame (type %d)", buf[0])
	}
	n := uint64(binary.LittleEndian.Uint32(buf[12:]))
	if n > uint64(len(buf)-CheckpointHeaderLen) {
		return CheckpointFrame{}, ErrTruncated
	}
	return CheckpointFrame{
		Shard:  binary.LittleEndian.Uint16(buf[2:]),
		NS:     binary.LittleEndian.Uint32(buf[4:]),
		Epoch:  binary.LittleEndian.Uint32(buf[8:]),
		Result: buf[CheckpointHeaderLen : CheckpointHeaderLen+int(n)],
	}, nil
}

// IsViewType reports whether t is one of the view-plane types
// (view/ack/stale-epoch/checkpoint).
func IsViewType(t uint8) bool { return t >= TypeView && t <= TypeCheckpoint }
