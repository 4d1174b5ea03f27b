// Package wire defines the binary message formats exchanged between
// OmniReduce workers and aggregators.
//
// The layout follows the paper's implementation (§5): a small fixed header
// carrying the metadata the RDMA implementation packs into a 32-bit
// immediate value (message type, opcode, slot id, block count), followed by
// the per-column next-offsets of the Block Fusion scheme (§3.2) and the
// fused block payloads. All integers are little-endian.
//
// A packet addresses one aggregation slot and carries up to Cols fused
// blocks, one per column of the two-dimensional block layout. Column i of
// a tensor with fusion width w holds the blocks {b : b mod w == i}. The
// "no more blocks" sentinel is column-specific (the paper's per-column
// infinity values): any next offset >= InfBase encodes infinity for column
// (offset - InfBase).
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Message types.
const (
	// TypeData is a worker->aggregator packet carrying zero or more fused
	// blocks plus per-column next-offsets. A TypeData packet with no
	// blocks is the loss-recovery ack of Algorithm 2 (empty payload).
	TypeData uint8 = iota + 1
	// TypeResult is an aggregator->worker packet carrying aggregated
	// blocks and the global per-column next-offsets.
	TypeResult
	// TypeSparseData is a worker->aggregator key-value packet (Algorithm 3).
	TypeSparseData
	// TypeSparseResult is the aggregator->worker key-value result.
	TypeSparseResult
)

// InfBase is the smallest "infinity" next-offset. InfBase+i is the
// infinity sentinel for column i, preserving column identity as required
// by Block Fusion (§3.2, footnote 3).
const InfBase uint32 = 0xFFFFFF00

// Inf returns the infinity sentinel for column col.
func Inf(col int) uint32 { return InfBase + uint32(col) }

// IsInf reports whether a next-offset is an infinity sentinel.
func IsInf(v uint32) bool { return v >= InfBase }

// MaxCols is the largest supported fusion width (limited by the presence
// bitmask and the InfBase encoding).
const MaxCols = 64

// Block is one fused block: its global block index and its values.
type Block struct {
	Index uint32
	Data  []float32
}

// Packet is a decoded dense-format OmniReduce message (TypeData or
// TypeResult).
type Packet struct {
	Type      uint8
	Version   uint8  // round number mod 256 (Algorithm 2 extended)
	DType     uint8  // element encoding: DTypeF32 or DTypeF16
	Slot      uint16 // stream / slot-pool index
	WID       uint16 // sending worker, or aggregator shard for results
	TensorID  uint32 // identifies the collective operation
	BlockSize uint32 // elements per block
	Nexts     []uint32
	Blocks    []Block
}

// Cols reports the fusion width.
func (p *Packet) Cols() int { return len(p.Nexts) }

// Done reports whether every column's next offset is infinity, i.e. the
// sender has no further non-zero blocks (end of reduction for this slot).
func (p *Packet) Done() bool {
	for _, n := range p.Nexts {
		if !IsInf(n) {
			return false
		}
	}
	return len(p.Nexts) > 0
}

// CopyPacketInto deep-copies src into dst: dst's Nexts and Blocks storage is
// reused and every block payload is carved from arena (grown only when too
// small), which is returned for the next copy into the same dst. Afterwards
// dst shares no memory with src, so it outlives a recycled shell or a
// released message buffer. Whoever keeps a packet past the lifetime it was
// handed with — a result archive, a queue of simulated messages in flight —
// keeps it this way, without allocating once dst and arena have grown.
func CopyPacketInto(dst *Packet, arena []float32, src *Packet) []float32 {
	nexts, blocks := dst.Nexts[:0], dst.Blocks[:0]
	*dst = *src
	dst.Nexts = append(nexts, src.Nexts...)
	n := 0
	for _, b := range src.Blocks {
		n += len(b.Data)
	}
	if cap(arena) < n {
		arena = make([]float32, 0, n)
	}
	arena = arena[:0]
	if cap(blocks) < len(src.Blocks) {
		blocks = make([]Block, 0, len(src.Blocks))
	}
	for _, b := range src.Blocks {
		start := len(arena)
		arena = append(arena, b.Data...)
		blocks = append(blocks, Block{Index: b.Index, Data: arena[start:len(arena):len(arena)]})
	}
	dst.Blocks = blocks
	return arena
}

// CopySparsePacketInto is CopyPacketInto for a key-value packet: dst's
// Keys and Values storage is reused (grown only when too small), so dst
// must own it — a shell kept for copies, not a packet whose slices alias
// another's. Afterwards dst shares no memory with src.
func CopySparsePacketInto(dst, src *SparsePacket) {
	keys, vals := dst.Keys[:0], dst.Values[:0]
	*dst = *src
	dst.Keys = append(keys, src.Keys...)
	dst.Values = append(vals, src.Values...)
}

const headerLen = 24

// MaxPacketLen returns the encoded size of a float32 packet with the
// given fusion width whose every column carries a full block of blockSize
// elements: the largest data packet of that shape.
func MaxPacketLen(cols, blockSize int) int { return FullPacketLen(cols, blockSize, DTypeF32) }

// FullPacketLen is MaxPacketLen for either element encoding, DTypeF32 or
// DTypeF16: the header, a next-key entry per column, and per column a
// block's index, length and elements.
func FullPacketLen(cols, blockSize int, dtype uint8) int {
	elemBytes := 4
	if dtype == DTypeF16 {
		elemBytes = 2
	}
	return headerLen + 4*cols + cols*(8+elemBytes*blockSize)
}

// EncodedPacketSize returns the exact byte length AppendPacket would
// produce for p, without encoding. The protocol machines attach this size
// to every emitted packet so the discrete-event simulator charges the
// fabric for the real wire format rather than a hand-written approximation.
func EncodedPacketSize(p *Packet) int {
	n := headerLen + 4*len(p.Nexts)
	elemBytes := 4
	if p.DType == DTypeF16 {
		elemBytes = 2
	}
	for _, b := range p.Blocks {
		n += 8 + elemBytes*len(b.Data)
	}
	return n
}

// EncodedSparsePacketSize returns the exact byte length
// AppendSparsePacket would produce for p.
func EncodedSparsePacketSize(p *SparsePacket) int {
	return sparseHeaderLen + 8*len(p.Keys)
}

// ErrTruncated is returned when a buffer is too short for its declared
// contents.
var ErrTruncated = fmt.Errorf("wire: truncated packet")

// grow extends dst by n bytes, reallocating only when capacity is
// exhausted, and returns the extended slice plus the writable tail. With a
// caller-reused dst of sufficient capacity this is allocation-free, which
// is what keeps the steady-state encode path off the garbage collector.
func grow(dst []byte, n int) (ext, tail []byte) {
	if cap(dst)-len(dst) < n {
		nd := make([]byte, len(dst), 2*cap(dst)+n)
		copy(nd, dst)
		dst = nd
	}
	ext = dst[:len(dst)+n]
	return ext, ext[len(dst):]
}

// ViewF32Slice returns the float32s that b, a multiple of four bytes
// long, encodes: b itself where viewable (f32_le.go, b 4-byte aligned),
// valid only while b is, else decoded into scratch, grown when too small
// and returned for reuse.
func ViewF32Slice(b []byte, scratch []float32) ([]float32, []float32) {
	if viewable(b) {
		return viewF32(b), scratch
	}
	if cap(scratch) < len(b)/4 {
		scratch = make([]float32, len(b)/4)
	}
	v := scratch[:len(b)/4]
	getF32Slice(v, b)
	return v, scratch
}

// putF16Slice writes src as little-endian binary16 into dst (2*len(src)
// bytes).
func putF16Slice(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], F16FromF32(v))
	}
}

// getF16Slice fills dst from little-endian binary16 in src (2*len(dst)
// bytes).
func getF16Slice(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = F16ToF32(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// AppendPacket encodes p, appending to dst and returning the extended
// slice. The layout is:
//
//	[0]  type, [1] version, [2] cols, [3] dtype
//	[4]  slot uint16, [6] wid uint16
//	[8]  tensorID uint32, [12] blockSize uint32
//	[16] presentMask uint64
//	[24] nexts [cols]uint32
//	...  per present block, ascending column order:
//	     index uint32, length-in-elements uint32, data [length]float32
//
// The per-block length field covers the tensor's final block, which may be
// shorter than blockSize. Blocks must be supplied in strictly ascending
// column order (at most one block per column); AppendPacket panics
// otherwise, since the decoder recovers block boundaries from the presence
// mask in ascending bit order.
func AppendPacket(dst []byte, p *Packet) []byte {
	if len(p.Nexts) == 0 || len(p.Nexts) > MaxCols {
		panic(fmt.Sprintf("wire: invalid fusion width %d", len(p.Nexts)))
	}
	var mask uint64
	prevCol := -1
	for _, b := range p.Blocks {
		col := int(b.Index) % len(p.Nexts)
		if col <= prevCol {
			panic(fmt.Sprintf("wire: blocks must be in ascending column order (col %d after %d)", col, prevCol))
		}
		prevCol = col
		mask |= 1 << uint(col)
	}
	// Reserve the whole encoding up front, then write by offset: one grow,
	// bulk payload copies, no per-element appends.
	dst, w := grow(dst, EncodedPacketSize(p))
	w[0] = p.Type
	w[1] = p.Version
	w[2] = uint8(len(p.Nexts))
	w[3] = p.DType
	binary.LittleEndian.PutUint16(w[4:], p.Slot)
	binary.LittleEndian.PutUint16(w[6:], p.WID)
	binary.LittleEndian.PutUint32(w[8:], p.TensorID)
	binary.LittleEndian.PutUint32(w[12:], p.BlockSize)
	binary.LittleEndian.PutUint64(w[16:], mask)
	off := headerLen
	for _, n := range p.Nexts {
		binary.LittleEndian.PutUint32(w[off:], n)
		off += 4
	}
	for _, b := range p.Blocks {
		binary.LittleEndian.PutUint32(w[off:], b.Index)
		binary.LittleEndian.PutUint32(w[off+4:], uint32(len(b.Data)))
		off += 8
		if p.DType == DTypeF16 {
			putF16Slice(w[off:], b.Data)
			off += 2 * len(b.Data)
		} else {
			PutF32Slice(w[off:], b.Data)
			off += 4 * len(b.Data)
		}
	}
	return dst
}

// DecodePacket parses an encoded dense packet. Block data slices are
// copied out of buf, so buf may be reused by the caller afterwards.
//
// Allocation-sensitive callers should use DecodePacketInto with a
// recycled packet and scratch arena instead; DecodePacket is the
// convenience form that allocates fresh storage per call.
func DecodePacket(buf []byte) (*Packet, error) {
	p := &Packet{}
	if _, err := DecodePacketInto(p, nil, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// emptyF32 backs zero-length block payloads so decoded empty blocks
// compare equal to encoder-side empty (non-nil) slices.
var emptyF32 = make([]float32, 0)

// DecodePacketInto parses an encoded dense packet into the caller-owned
// packet p, carving every block payload out of the single scratch arena
// (grown only when too small) and returning the arena for reuse. All prior
// contents of p and scratch are overwritten; nothing from a previous
// decode survives into the result.
//
// Ownership: on success, p's Nexts/Blocks slices and every Block.Data
// alias p's recycled storage and the returned arena. They remain valid
// until the next DecodePacketInto call with the same p or arena, so
// consumers must finish with (or copy out of) the packet before recycling
// it. buf itself is not retained and may be released immediately.
func DecodePacketInto(p *Packet, scratch []float32, buf []byte) ([]float32, error) {
	return decodePacket(p, scratch, buf, false)
}

// DecodePacketView is DecodePacketInto without the payload copy: where the
// float32 payloads in buf are already the target's in-memory form (float32
// data on a little-endian build, buf 4-byte aligned), every Block.Data
// aliases buf and scratch is returned untouched. Anything else — half
// precision, a misaligned buf, a build f32_le.go does not name — decodes
// exactly like DecodePacketInto; the input picks the path, and the two
// results are equal element for element.
//
// Ownership: the decoded packet is valid only while buf is — the caller
// must be done with it before it releases, recycles or rewrites buf — and,
// like DecodePacketInto's, only until the next decode with the same p or
// arena.
func DecodePacketView(p *Packet, scratch []float32, buf []byte) ([]float32, error) {
	return decodePacket(p, scratch, buf, true)
}

func decodePacket(p *Packet, scratch []float32, buf []byte, view bool) ([]float32, error) {
	if len(buf) < headerLen {
		return scratch, ErrTruncated
	}
	p.Type = buf[0]
	p.Version = buf[1]
	p.DType = buf[3]
	p.Slot = binary.LittleEndian.Uint16(buf[4:])
	p.WID = binary.LittleEndian.Uint16(buf[6:])
	p.TensorID = binary.LittleEndian.Uint32(buf[8:])
	p.BlockSize = binary.LittleEndian.Uint32(buf[12:])
	p.Nexts = p.Nexts[:0]
	p.Blocks = p.Blocks[:0]
	if p.DType > DTypeF16 {
		return scratch, fmt.Errorf("wire: unknown dtype %d", p.DType)
	}
	cols := int(buf[2])
	if cols == 0 || cols > MaxCols {
		return scratch, fmt.Errorf("wire: invalid fusion width %d", cols)
	}
	mask := binary.LittleEndian.Uint64(buf[16:])
	off := headerLen
	if len(buf) < off+4*cols {
		return scratch, ErrTruncated
	}
	for i := 0; i < cols; i++ {
		p.Nexts = append(p.Nexts, binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	elemBytes := 4
	if p.DType == DTypeF16 {
		elemBytes = 2
	}

	// First pass: validate the block structure and total the element
	// counts before touching the arena, and allocate nothing for a packet
	// that fails. Almost every packet carries full blocks only, and then
	// the headers sit one stride apart and can all be checked without
	// reading one to find the next; anything else — a short tail block, a
	// damaged length — takes the sequential walk, which decides.
	k := bits.OnesCount64(mask)
	var total int
	if fullBlocks(buf, off, k, p.BlockSize, elemBytes) {
		total = k * int(p.BlockSize)
	} else {
		var err error
		if total, err = walkBlocks(buf, off, mask, elemBytes); err != nil {
			return scratch, err
		}
	}

	// With float32 payloads every payload offset is a multiple of four
	// (header, nexts and block headers all are), so buf's own alignment
	// decides for all blocks at once. Only the copy path needs the arena.
	alias := view && p.DType == DTypeF32 && viewable(buf)
	if !alias {
		if cap(scratch) < total {
			scratch = make([]float32, total)
		}
		scratch = scratch[:cap(scratch)]
	}

	// Second pass: point each block at its payload in buf, or decode it
	// into a disjoint arena carving. The arena no longer moves, so earlier
	// blocks stay valid.
	used := 0
	for ; mask != 0; mask &= mask - 1 {
		idx := binary.LittleEndian.Uint32(buf[off:])
		n := int(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
		data := emptyF32
		switch {
		case n == 0:
		case alias:
			data = viewF32(buf[off : off+4*n])
		default:
			data = scratch[used : used+n : used+n]
			used += n
			if p.DType == DTypeF16 {
				getF16Slice(data, buf[off:])
			} else {
				getF32Slice(data, buf[off:])
			}
		}
		off += elemBytes * n
		p.Blocks = append(p.Blocks, Block{Index: idx, Data: data})
	}
	return scratch, nil
}

// fullBlocks reports whether the k block headers that follow off in buf
// all declare blockSize elements, with the blocks fitting in buf. Every
// header's offset is then known before any is read — the i-th sits at
// off + i×(8 + elemBytes×blockSize) — so the loads overlap, where a walk
// that finds each header from the length before it waits out one cache
// miss per block. It accepts a subset of what walkBlocks accepts, with the
// same total.
func fullBlocks(buf []byte, off, k int, blockSize uint32, elemBytes int) bool {
	stride := 8 + uint64(elemBytes)*uint64(blockSize)
	if uint64(k)*stride > uint64(len(buf)-off) {
		return false
	}
	s := int(stride) // fits: k×stride fits in buf, and k > 0 if the loop runs
	for i, o := 0, off+4; i < k; i, o = i+1, o+s {
		if binary.LittleEndian.Uint32(buf[o:]) != blockSize {
			return false
		}
	}
	return true
}

// walkBlocks validates the block headers the presence mask announces
// after off, each found from the length before it, and totals their
// element counts. Counts come off the wire as uint32, so all comparisons
// stay in uint64: a hostile length cannot overflow int arithmetic on any
// platform.
func walkBlocks(buf []byte, off int, mask uint64, elemBytes int) (int, error) {
	total := 0
	for ; mask != 0; mask &= mask - 1 {
		if len(buf) < off+8 {
			return 0, ErrTruncated
		}
		n := uint64(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
		if n > uint64(len(buf)-off)/uint64(elemBytes) {
			return 0, ErrTruncated
		}
		off += elemBytes * int(n)
		total += int(n)
	}
	return total, nil
}

// SparsePacket is a decoded key-value message (Algorithm 3).
type SparsePacket struct {
	Type     uint8
	WID      uint16
	TensorID uint32
	NextKey  uint32  // key of the sender's next non-zero value; InfKey if none
	Keys     []int32 // tensor.COO's key type, 4 bytes little-endian on the wire
	Values   []float32
}

// InfKey is the "no more keys" sentinel for sparse packets.
const InfKey uint32 = 0xFFFFFFFF

const sparseHeaderLen = 16

// AppendSparsePacket encodes p, appending to dst.
func AppendSparsePacket(dst []byte, p *SparsePacket) []byte {
	if len(p.Keys) != len(p.Values) {
		panic("wire: keys/values length mismatch")
	}
	dst, w := grow(dst, EncodedSparsePacketSize(p))
	w[0] = p.Type
	w[1] = 0
	binary.LittleEndian.PutUint16(w[2:], p.WID)
	binary.LittleEndian.PutUint32(w[4:], p.TensorID)
	binary.LittleEndian.PutUint32(w[8:], p.NextKey)
	binary.LittleEndian.PutUint32(w[12:], uint32(len(p.Keys)))
	putI32Slice(w[sparseHeaderLen:], p.Keys)
	PutF32Slice(w[sparseHeaderLen+4*len(p.Keys):], p.Values)
	return dst
}

// DecodeSparsePacket parses an encoded sparse packet, allocating fresh
// key/value storage. Allocation-sensitive callers should reuse a packet
// via DecodeSparsePacketInto.
func DecodeSparsePacket(buf []byte) (*SparsePacket, error) {
	p := &SparsePacket{}
	if err := DecodeSparsePacketInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeSparsePacketInto parses an encoded sparse packet into the
// caller-owned p, reusing its Keys/Values storage. All prior contents of p
// are overwritten. The declared pair count is validated against the
// remaining buffer length in uint64 (it arrives as a uint32, so a hostile
// value cannot overflow int arithmetic on 32-bit platforms) before any
// storage is grown. buf is not retained.
func DecodeSparsePacketInto(p *SparsePacket, buf []byte) error {
	_, _, err := decodeSparsePacket(p, p.Keys, p.Values, buf, false)
	return err
}

// DecodeSparsePacketView is the key-value DecodePacketView: on a
// little-endian build with buf 4-byte aligned, p.Keys and p.Values alias
// buf; otherwise they are carved from the caller's keys and vals arenas
// (grown only when too small), which are returned for reuse either way.
// The arenas are separate from p because an aliasing p.Keys must never be
// taken for recycled storage by a later copying decode.
//
// Ownership: as for DecodePacketView, the decoded packet is valid only
// while buf is, and only until the next decode with the same p or arenas.
func DecodeSparsePacketView(p *SparsePacket, keys []int32, vals []float32, buf []byte) ([]int32, []float32, error) {
	return decodeSparsePacket(p, keys, vals, buf, true)
}

func decodeSparsePacket(p *SparsePacket, keys []int32, vals []float32, buf []byte, view bool) ([]int32, []float32, error) {
	p.Keys, p.Values = keys[:0], vals[:0]
	if len(buf) < sparseHeaderLen {
		return keys, vals, ErrTruncated
	}
	p.Type = buf[0]
	p.WID = binary.LittleEndian.Uint16(buf[2:])
	p.TensorID = binary.LittleEndian.Uint32(buf[4:])
	p.NextKey = binary.LittleEndian.Uint32(buf[8:])
	n64 := uint64(binary.LittleEndian.Uint32(buf[12:]))
	if n64 > uint64(len(buf)-sparseHeaderLen)/8 {
		return keys, vals, ErrTruncated
	}
	n := int(n64)
	off := sparseHeaderLen
	if view && n > 0 && viewable(buf) {
		p.Keys = viewI32(buf[off : off+4*n])
		p.Values = viewF32(buf[off+4*n : off+8*n])
		return keys, vals, nil
	}
	if cap(keys) < n {
		keys = make([]int32, n)
	}
	keys = keys[:n]
	getI32Slice(keys, buf[off:])
	if cap(vals) < n {
		vals = make([]float32, n)
	}
	vals = vals[:n]
	getF32Slice(vals, buf[off+4*n:])
	p.Keys, p.Values = keys, vals
	return keys, vals, nil
}

// PeekType returns the message type of an encoded packet without decoding
// it, or 0 for an empty buffer.
func PeekType(buf []byte) uint8 {
	if len(buf) == 0 {
		return 0
	}
	return buf[0]
}

// PeekSlot returns the slot of an encoded dense packet (TypeData or
// TypeResult) without decoding it. It is the aggregator driver's shard
// router: all state the aggregator machine keeps for dense traffic is
// keyed by slot, so slot identity is all that is needed to partition
// packets across shards without breaking per-slot ordering.
func PeekSlot(buf []byte) (uint16, bool) {
	if len(buf) < 6 {
		return 0, false
	}
	if t := buf[0]; t != TypeData && t != TypeResult {
		return 0, false
	}
	return binary.LittleEndian.Uint16(buf[4:]), true
}
