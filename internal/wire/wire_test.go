package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Type:      TypeData,
		Version:   1,
		Slot:      7,
		WID:       3,
		TensorID:  42,
		BlockSize: 4,
		Nexts:     []uint32{8, Inf(1), 10, 11},
		Blocks: []Block{
			{Index: 4, Data: []float32{1, 2, 3, 4}}, // col 0
			{Index: 6, Data: []float32{5, 6, 7, 8}}, // col 2
			{Index: 7, Data: []float32{9}},          // col 3, short tail block
		},
	}
	buf := AppendPacket(nil, p)
	got, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
	if PeekType(buf) != TypeData {
		t.Fatal("PeekType wrong")
	}
}

func TestPacketAckNoBlocks(t *testing.T) {
	p := &Packet{Type: TypeData, Slot: 1, WID: 2, BlockSize: 256, Nexts: []uint32{5, 9}}
	buf := AppendPacket(nil, p)
	got, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != 0 {
		t.Fatalf("ack decoded %d blocks", len(got.Blocks))
	}
	if got.Done() {
		t.Fatal("packet with finite nexts reported Done")
	}
}

func TestPacketDone(t *testing.T) {
	p := &Packet{Type: TypeResult, Nexts: []uint32{Inf(0), Inf(1)}}
	if !p.Done() {
		t.Fatal("all-inf packet should be Done")
	}
	if (&Packet{Type: TypeResult}).Done() {
		t.Fatal("packet with no columns must not be Done")
	}
}

func TestInfEncoding(t *testing.T) {
	for col := 0; col < MaxCols; col++ {
		v := Inf(col)
		if !IsInf(v) {
			t.Fatalf("Inf(%d) not IsInf", col)
		}
		if int(v-InfBase) != col {
			t.Fatalf("Inf(%d) lost column", col)
		}
	}
	if IsInf(12345) {
		t.Fatal("ordinary offset reported Inf")
	}
}

func TestAppendPacketColumnOrderPanics(t *testing.T) {
	p := &Packet{
		Type: TypeData, BlockSize: 2, Nexts: []uint32{0, 0},
		Blocks: []Block{{Index: 3, Data: []float32{1, 2}}, {Index: 2, Data: []float32{1, 2}}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-order columns")
		}
	}()
	AppendPacket(nil, p)
}

func TestAppendPacketInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero fusion width")
		}
	}()
	AppendPacket(nil, &Packet{Type: TypeData})
}

func TestDecodePacketTruncated(t *testing.T) {
	p := &Packet{Type: TypeData, BlockSize: 4, Nexts: []uint32{8},
		Blocks: []Block{{Index: 1, Data: []float32{1, 2, 3, 4}}}}
	buf := AppendPacket(nil, p)
	for _, n := range []int{0, 5, headerLen - 1, headerLen + 1, len(buf) - 1} {
		if n > len(buf) {
			continue
		}
		if _, err := DecodePacket(buf[:n]); err == nil {
			t.Errorf("DecodePacket accepted %d-byte prefix", n)
		}
	}
}

func TestDecodePacketBadWidth(t *testing.T) {
	buf := AppendPacket(nil, &Packet{Type: TypeData, BlockSize: 1, Nexts: []uint32{Inf(0)}})
	buf[2] = 0
	if _, err := DecodePacket(buf); err == nil {
		t.Fatal("accepted zero width")
	}
	buf[2] = MaxCols + 1
	if _, err := DecodePacket(buf); err == nil {
		t.Fatal("accepted oversize width")
	}
}

func TestSparseRoundTrip(t *testing.T) {
	p := &SparsePacket{
		Type: TypeSparseData, WID: 5, TensorID: 9, NextKey: 100,
		Keys:   []int32{1, 5, 9},
		Values: []float32{0.5, -1, 2},
	}
	buf := AppendSparsePacket(nil, p)
	got, err := DecodeSparsePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("sparse round trip mismatch: %+v vs %+v", got, p)
	}
}

// TestSparseKeyBytes pins the key encoding: little-endian two's
// complement, so a key's wire bytes are those of its uint32 form and a
// wire key with the high bit set decodes negative.
func TestSparseKeyBytes(t *testing.T) {
	p := &SparsePacket{Keys: []int32{0x01020304, math.MaxInt32, -1, math.MinInt32}, Values: make([]float32, 4)}
	buf := AppendSparsePacket(nil, p)
	want := []byte{4, 3, 2, 1, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0x80}
	if got := buf[sparseHeaderLen : sparseHeaderLen+16]; !bytes.Equal(got, want) {
		t.Fatalf("key bytes % x, want % x", got, want)
	}
	got, err := DecodeSparsePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Keys, p.Keys) {
		t.Fatalf("keys %v, want %v", got.Keys, p.Keys)
	}
}

func TestSparseEmpty(t *testing.T) {
	p := &SparsePacket{Type: TypeSparseData, NextKey: InfKey}
	got, err := DecodeSparsePacket(AppendSparsePacket(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != 0 || got.NextKey != InfKey {
		t.Fatalf("got %+v", got)
	}
}

func TestSparseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AppendSparsePacket(nil, &SparsePacket{Keys: []int32{1}})
}

func TestSparseTruncated(t *testing.T) {
	buf := AppendSparsePacket(nil, &SparsePacket{
		Type: TypeSparseData, Keys: []int32{1, 2}, Values: []float32{1, 2}})
	for _, n := range []int{0, sparseHeaderLen - 1, len(buf) - 1} {
		if _, err := DecodeSparsePacket(buf[:n]); err == nil {
			t.Errorf("accepted %d-byte prefix", n)
		}
	}
}

// Property: random packets survive a round trip.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := 1 + r.Intn(MaxCols)
		bs := 1 + r.Intn(64)
		p := &Packet{
			Type:      TypeData,
			Version:   uint8(r.Intn(2)),
			Slot:      uint16(r.Intn(1 << 12)),
			WID:       uint16(r.Intn(256)),
			TensorID:  r.Uint32(),
			BlockSize: uint32(bs),
			Nexts:     make([]uint32, cols),
		}
		for c := range p.Nexts {
			if r.Float64() < 0.3 {
				p.Nexts[c] = Inf(c)
			} else {
				p.Nexts[c] = uint32(r.Intn(1 << 20))
			}
		}
		for c := 0; c < cols; c++ {
			if r.Float64() < 0.5 {
				data := make([]float32, bs)
				for i := range data {
					data[i] = float32(r.NormFloat64())
				}
				// Block index congruent to c modulo cols.
				idx := uint32(r.Intn(1000))*uint32(cols) + uint32(c)
				p.Blocks = append(p.Blocks, Block{Index: idx, Data: data})
			}
		}
		got, err := DecodePacket(AppendPacket(nil, p))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPacketEncode(b *testing.B) {
	p := &Packet{Type: TypeData, BlockSize: 256, Nexts: make([]uint32, 4)}
	for c := 0; c < 4; c++ {
		p.Blocks = append(p.Blocks, Block{Index: uint32(c), Data: make([]float32, 256)})
	}
	buf := make([]byte, 0, MaxPacketLen(4, 256))
	b.SetBytes(int64(4 * 256 * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendPacket(buf[:0], p)
	}
}

func BenchmarkPacketDecode(b *testing.B) {
	p := &Packet{Type: TypeData, BlockSize: 256, Nexts: make([]uint32, 4)}
	for c := 0; c < 4; c++ {
		p.Blocks = append(p.Blocks, Block{Index: uint32(c), Data: make([]float32, 256)})
	}
	buf := AppendPacket(nil, p)
	b.SetBytes(int64(4 * 256 * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketDecodeInto is the reuse path the live drivers run:
// recycled packet, recycled scratch arena, zero steady-state allocations.
func BenchmarkPacketDecodeInto(b *testing.B) {
	p := &Packet{Type: TypeData, BlockSize: 256, Nexts: make([]uint32, 4)}
	for c := 0; c < 4; c++ {
		p.Blocks = append(p.Blocks, Block{Index: uint32(c), Data: make([]float32, 256)})
	}
	buf := AppendPacket(nil, p)
	var dst Packet
	var scratch []float32
	b.SetBytes(int64(4 * 256 * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = DecodePacketInto(&dst, scratch, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeViewAliasing pins which path each input takes: float32
// payloads in a 4-byte-aligned message are decoded in place where the
// build allows it, and everything else — an odd offset, half precision —
// is a private copy that rewriting the message cannot reach.
func TestDecodeViewAliasing(t *testing.T) {
	if a := runtime.GOARCH; (a == "amd64" || a == "arm64") && !viewable(placeAt([]byte{0}, 0)) {
		t.Fatalf("%s decodes no views", a)
	}
	for _, dtype := range []uint8{DTypeF32, DTypeF16} {
		for off := 0; off < 4; off++ {
			buf := placeAt(AppendPacket(nil, &Packet{Type: TypeData, DType: dtype, BlockSize: 4,
				Nexts: []uint32{Inf(0)}, Blocks: []Block{{Index: 0, Data: []float32{1, 2, 3, 4}}}}), off)
			sbuf := placeAt(AppendSparsePacket(nil, &SparsePacket{Type: TypeSparseData, NextKey: InfKey,
				Keys: []int32{5, 6}, Values: []float32{1, 2}}), off)
			var p Packet
			if _, err := DecodePacketView(&p, nil, buf); err != nil {
				t.Fatal(err)
			}
			var sp SparsePacket
			if _, _, err := DecodeSparsePacketView(&sp, nil, nil, sbuf); err != nil {
				t.Fatal(err)
			}
			clear(buf)
			clear(sbuf)
			aliased := p.Blocks[0].Data[3] == 0
			if want := viewable(buf) && dtype == DTypeF32; aliased != want {
				t.Errorf("dtype %d offset %d: dense payload aliased=%v, want %v", dtype, off, aliased, want)
			}
			if !aliased && p.Blocks[0].Data[3] != 4 {
				t.Errorf("dtype %d offset %d: copied payload reads %v", dtype, off, p.Blocks[0].Data)
			}
			if aliased, want := sp.Keys[1] == 0 && sp.Values[1] == 0, viewable(sbuf); aliased != want {
				t.Errorf("offset %d: sparse aliased=%v, want %v (%v %v)", off, aliased, want, sp.Keys, sp.Values)
			}
		}
	}
}

// BenchmarkPacketDecodeView is the live drivers' receive decode: header,
// validation pass and block slices pointing into the message, no payload
// copy on little-endian targets.
func BenchmarkPacketDecodeView(b *testing.B) {
	p := &Packet{Type: TypeData, BlockSize: 256, Nexts: make([]uint32, 4)}
	for c := 0; c < 4; c++ {
		p.Blocks = append(p.Blocks, Block{Index: uint32(c), Data: make([]float32, 256)})
	}
	buf := placeAt(AppendPacket(nil, p), 0)
	var dst Packet
	var scratch []float32
	b.SetBytes(int64(4 * 256 * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = DecodePacketView(&dst, scratch, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestF16RoundTripExactValues(t *testing.T) {
	// Values exactly representable in binary16 survive both directions.
	for _, v := range []float32{0, 1, -1, 0.5, 2, -1024, 65504, 6.103515625e-05} {
		h := F16FromF32(v)
		if got := F16ToF32(h); got != v {
			t.Errorf("f16 round trip %v -> %v", v, got)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := F16ToF32(F16FromF32(inf)); got != inf {
		t.Errorf("+Inf -> %v", got)
	}
	if got := F16ToF32(F16FromF32(float32(math.Inf(-1)))); got != float32(math.Inf(-1)) {
		t.Errorf("-Inf -> %v", got)
	}
	nan := float32(math.NaN())
	if got := F16ToF32(F16FromF32(nan)); got == got { // NaN != NaN
		t.Errorf("NaN -> %v", got)
	}
	// Overflow saturates to Inf, underflow to zero.
	if got := F16ToF32(F16FromF32(1e10)); got != inf {
		t.Errorf("overflow -> %v", got)
	}
	if got := F16ToF32(F16FromF32(1e-10)); got != 0 {
		t.Errorf("underflow -> %v", got)
	}
	// Subnormal half values round trip through the decoder.
	sub := F16ToF32(0x0001) // smallest positive subnormal: 2^-24
	if sub <= 0 || sub > 6e-8 {
		t.Errorf("subnormal decode = %v", sub)
	}
	if got := F16FromF32(sub); got != 0x0001 {
		t.Errorf("subnormal re-encode = %#x", got)
	}
}

// Property: conversion error is bounded by half-precision ULP (2^-11
// relative) for values in the normal range.
func TestF16ErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := float32((r.Float64()*2 - 1) * 60000)
		got := F16ToF32(F16FromF32(v))
		av := math.Abs(float64(v))
		if av < 1e-4 {
			return true // near the subnormal boundary; skip
		}
		return math.Abs(float64(got)-float64(v)) <= av/1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: F16ToF32 -> F16FromF32 is the identity on all 65536 half
// values except NaNs (canonicalized).
func TestF16AllValuesStable(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		v := F16ToF32(uint16(h))
		if v != v {
			continue // NaN payloads canonicalize
		}
		if got := F16FromF32(v); got != uint16(h) {
			t.Fatalf("half %#04x -> %v -> %#04x", h, v, got)
		}
	}
}

func TestPacketF16RoundTrip(t *testing.T) {
	p := &Packet{
		Type: TypeData, DType: DTypeF16, BlockSize: 4,
		Nexts:  []uint32{8, Inf(1)},
		Blocks: []Block{{Index: 2, Data: []float32{1, -0.5, 2048, 0}}, {Index: 3, Data: []float32{0.25}}},
	}
	buf := AppendPacket(nil, p)
	got, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DType != DTypeF16 {
		t.Fatalf("dtype = %d", got.DType)
	}
	for i, b := range got.Blocks {
		for j, v := range b.Data {
			if v != p.Blocks[i].Data[j] {
				t.Fatalf("block %d elem %d: %v vs %v", i, j, v, p.Blocks[i].Data[j])
			}
		}
	}
	// fp16 packets are ~half the size of fp32.
	p32 := *p
	p32.DType = DTypeF32
	buf32 := AppendPacket(nil, &p32)
	if len(buf) >= len(buf32) {
		t.Fatalf("fp16 packet %d bytes not smaller than fp32 %d", len(buf), len(buf32))
	}
}

func TestDecodePacketBadDType(t *testing.T) {
	buf := AppendPacket(nil, &Packet{Type: TypeData, BlockSize: 1, Nexts: []uint32{Inf(0)}})
	buf[3] = 7
	if _, err := DecodePacket(buf); err == nil {
		t.Fatal("accepted unknown dtype")
	}
}
