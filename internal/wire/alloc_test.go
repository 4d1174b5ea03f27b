package wire

import "testing"

// Allocation regression tests for the steady-state datapath: encoding into
// a reused buffer and decoding into a recycled packet + scratch arena must
// not allocate at all. A regression here reintroduces per-packet GC
// pressure on every live worker and aggregator.
//
// Skipped under the race detector, whose instrumentation allocates.

func benchPacket() *Packet {
	p := &Packet{Type: TypeData, Version: 3, Slot: 2, WID: 1, TensorID: 7,
		BlockSize: 256, Nexts: []uint32{8, Inf(1), 10, 11}}
	for c := 0; c < 4; c++ {
		data := make([]float32, 256)
		for i := range data {
			data[i] = float32(c*256 + i)
		}
		p.Blocks = append(p.Blocks, Block{Index: uint32(c), Data: data})
	}
	return p
}

func TestAppendPacketZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	p := benchPacket()
	buf := AppendPacket(nil, p)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendPacket(buf[:0], p)
	})
	if allocs != 0 {
		t.Fatalf("AppendPacket into reused buffer: %v allocs/op, want 0", allocs)
	}
}

func TestDecodePacketIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	buf := AppendPacket(nil, benchPacket())
	var p Packet
	var scratch []float32
	var err error
	// Warm the recycled state once so steady state is measured.
	if scratch, err = DecodePacketInto(&p, scratch, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if scratch, err = DecodePacketInto(&p, scratch, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodePacketInto with recycled state: %v allocs/op, want 0", allocs)
	}
}

// The view decoders must not allocate on either of their paths: aliasing
// (offset 0) or carving from the recycled arenas (offset 1).
func TestDecodeViewZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	dense := AppendPacket(nil, benchPacket())
	src := &SparsePacket{Type: TypeSparseData, NextKey: 9}
	for i := 0; i < 256; i++ {
		src.Keys = append(src.Keys, uint32(2*i))
		src.Values = append(src.Values, float32(i))
	}
	sparse := AppendSparsePacket(nil, src)
	for off := 0; off < 2; off++ {
		dbuf, sbuf := placeAt(dense, off), placeAt(sparse, off)
		var p Packet
		var sp SparsePacket
		var scratch, vals []float32
		var keys []uint32
		var err error
		decode := func() {
			if scratch, err = DecodePacketView(&p, scratch, dbuf); err != nil {
				t.Fatal(err)
			}
			if keys, vals, err = DecodeSparsePacketView(&sp, keys, vals, sbuf); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm the recycled state
		if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
			t.Fatalf("view decode at offset %d: %v allocs/op, want 0", off, allocs)
		}
	}
}

func TestAppendSparsePacketZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	p := &SparsePacket{Type: TypeSparseData, WID: 1, TensorID: 2, NextKey: 9}
	for i := 0; i < 256; i++ {
		p.Keys = append(p.Keys, uint32(2*i))
		p.Values = append(p.Values, float32(i))
	}
	buf := AppendSparsePacket(nil, p)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSparsePacket(buf[:0], p)
	})
	if allocs != 0 {
		t.Fatalf("AppendSparsePacket into reused buffer: %v allocs/op, want 0", allocs)
	}
}

func TestDecodeSparsePacketIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	src := &SparsePacket{Type: TypeSparseData, NextKey: 9}
	for i := 0; i < 256; i++ {
		src.Keys = append(src.Keys, uint32(2*i))
		src.Values = append(src.Values, float32(i))
	}
	buf := AppendSparsePacket(nil, src)
	var p SparsePacket
	if err := DecodeSparsePacketInto(&p, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeSparsePacketInto(&p, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeSparsePacketInto with recycled state: %v allocs/op, want 0", allocs)
	}
}
