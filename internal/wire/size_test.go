package wire

import "testing"

// EncodedPacketSize / EncodedSparsePacketSize are the single source of
// truth for how many bytes a packet occupies on the wire: the live drivers
// encode exactly that many bytes, and the simulator charges its fabric
// that many bytes without encoding. This test pins the contract for every
// packet kind by comparing against the real encoder's output.

func sizePackets() map[string]*Packet {
	return map[string]*Packet{
		"bootstrap-single-block": {
			Type: TypeData, DType: DTypeF32, Slot: 0, WID: 1, TensorID: 7,
			BlockSize: 256,
			Nexts:     []uint32{12},
			Blocks:    []Block{{Index: 0, Data: make([]float32, 256)}},
		},
		"fused-multi-block": {
			Type: TypeData, DType: DTypeF32, Slot: 3, WID: 2, TensorID: 7,
			BlockSize: 64,
			Nexts:     []uint32{8, Inf(1), 10, 11, 20, 21, 22, 23},
			Blocks: []Block{
				{Index: 0, Data: make([]float32, 64)},
				{Index: 2, Data: make([]float32, 64)},
				{Index: 5, Data: make([]float32, 13)}, // short tail block
			},
		},
		"empty-ack": {
			Type: TypeData, Version: 9, DType: DTypeF32, Slot: 1, WID: 0,
			TensorID:  3,
			BlockSize: 32,
			Nexts:     []uint32{Inf(0), Inf(1), Inf(2), Inf(3)},
		},
		"result-multicast": {
			Type: TypeResult, Version: 4, DType: DTypeF32, Slot: 2, WID: 100,
			TensorID:  3,
			BlockSize: 32,
			Nexts:     []uint32{5, Inf(1)},
			Blocks: []Block{
				{Index: 4, Data: make([]float32, 32)},
				{Index: 3, Data: make([]float32, 32)},
			},
		},
		"half-precision": {
			Type: TypeData, DType: DTypeF16, Slot: 0, WID: 1, TensorID: 9,
			BlockSize: 128,
			Nexts:     []uint32{Inf(0)},
			Blocks:    []Block{{Index: 0, Data: make([]float32, 128)}},
		},
	}
}

func TestEncodedPacketSizeMatchesEncoder(t *testing.T) {
	for name, p := range sizePackets() {
		enc := AppendPacket(nil, p)
		if got, want := EncodedPacketSize(p), len(enc); got != want {
			t.Errorf("%s: EncodedPacketSize = %d, encoder wrote %d bytes", name, got, want)
		}
	}
}

func TestEncodedSparsePacketSizeMatchesEncoder(t *testing.T) {
	cases := map[string]*SparsePacket{
		"data-chunk": {
			Type: TypeSparseData, WID: 1, TensorID: 5,
			Keys:    []int32{3, 9, 200},
			Values:  []float32{1, 2, 3},
			NextKey: 201,
		},
		"empty-flush": {
			Type: TypeSparseData, WID: 0, TensorID: 5, NextKey: InfKey,
		},
		"result-chunk": {
			Type: TypeSparseResult, WID: 2, TensorID: 5,
			Keys:    []int32{1, 2, 3, 4},
			Values:  []float32{4, 3, 2, 1},
			NextKey: InfKey - 1, // MoreComing marker
		},
	}
	for name, p := range cases {
		enc := AppendSparsePacket(nil, p)
		if got, want := EncodedSparsePacketSize(p), len(enc); got != want {
			t.Errorf("%s: EncodedSparsePacketSize = %d, encoder wrote %d bytes", name, got, want)
		}
	}
}

// TestFullPacketLenMatchesEncoder: FullPacketLen (and MaxPacketLen, its
// float32 case) is the encoded size of a packet whose every column holds
// a full block, in either element encoding, up to the widest packet.
func TestFullPacketLenMatchesEncoder(t *testing.T) {
	for _, cols := range []int{1, 4, 32, 63, MaxCols} {
		for _, bs := range []int{1, 256} {
			for _, dtype := range []uint8{DTypeF32, DTypeF16} {
				p := &Packet{Type: TypeData, DType: dtype, BlockSize: uint32(bs), Nexts: make([]uint32, cols)}
				for c := 0; c < cols; c++ {
					p.Blocks = append(p.Blocks, Block{Index: uint32(c), Data: make([]float32, bs)})
				}
				if got, want := FullPacketLen(cols, bs, dtype), len(AppendPacket(nil, p)); got != want {
					t.Errorf("%d x %d, dtype %d: FullPacketLen = %d, encoder wrote %d bytes", cols, bs, dtype, got, want)
				}
			}
			if got, want := MaxPacketLen(cols, bs), FullPacketLen(cols, bs, DTypeF32); got != want {
				t.Errorf("%d x %d: MaxPacketLen = %d, FullPacketLen %d", cols, bs, got, want)
			}
		}
	}
}
