package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

// Robustness: decoding arbitrary bytes must never panic — it either
// returns a packet or an error. The aggregator and worker receive raw
// datagrams from the network, so the decoders are an attack/corruption
// surface.

func TestDecodePacketNeverPanics(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(size)%2048)
		r.Read(buf)
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("DecodePacket panicked on %d bytes: %v", len(buf), p)
			}
		}()
		_, _ = DecodePacket(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSparsePacketNeverPanics(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(size)%2048)
		r.Read(buf)
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("DecodeSparsePacket panicked: %v", p)
			}
		}()
		_, _ = DecodeSparsePacket(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Flipping any single byte of a valid packet must not panic either (it
// may decode to a different valid packet or fail).
func TestDecodePacketBitflips(t *testing.T) {
	p := &Packet{
		Type: TypeData, Version: 1, Slot: 3, WID: 2, TensorID: 9,
		BlockSize: 8,
		Nexts:     []uint32{16, Inf(1)},
		Blocks:    []Block{{Index: 4, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8}}},
	}
	buf := AppendPacket(nil, p)
	for i := range buf {
		for _, b := range []byte{0x00, 0xFF, buf[i] ^ 0x01} {
			mut := append([]byte(nil), buf...)
			mut[i] = b
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic with byte %d set to %#x: %v", i, b, r)
					}
				}()
				_, _ = DecodePacket(mut)
			}()
		}
	}
}

// seedPackets are valid encodings of representative packets, used both as
// fuzz seeds and by the corpus generator.
func seedPackets() [][]byte {
	ps := []*Packet{
		{Type: TypeData, Version: 1, Slot: 3, WID: 2, TensorID: 9, BlockSize: 8,
			Nexts:  []uint32{16, Inf(1)},
			Blocks: []Block{{Index: 4, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8}}}},
		{Type: TypeResult, Version: 200, Slot: 0, WID: 0, TensorID: 1, BlockSize: 4,
			Nexts:  []uint32{Inf(0), Inf(1), Inf(2), Inf(3)},
			Blocks: nil}, // pure ack / completion
		{Type: TypeData, DType: DTypeF16, Version: 7, Slot: 1, WID: 5, TensorID: 3,
			BlockSize: 2, Nexts: []uint32{8, 9, 10},
			Blocks: []Block{
				{Index: 3, Data: []float32{0.5, -2}},
				{Index: 4, Data: []float32{65504, 0}},
				{Index: 5, Data: []float32{1}}, // short tail block
			}},
	}
	var out [][]byte
	for _, p := range ps {
		out = append(out, AppendPacket(nil, p))
	}
	out = append(out, AppendSparsePacket(nil, &SparsePacket{
		Type: TypeSparseData, WID: 1, TensorID: 2, NextKey: 77,
		Keys: []int32{3, 9, 40}, Values: []float32{1, -1, 0.25},
	}))
	out = append(out, AppendSparsePacket(nil, &SparsePacket{
		Type: TypeSparseResult, WID: 0, TensorID: 2, NextKey: InfKey,
	}))
	// A header-only bootstrap: round 0, next offsets, no block (the first
	// block of every column was zero). Last, so that adding it renumbered
	// no earlier corpus file.
	out = append(out, AppendPacket(nil, &Packet{Type: TypeData, Version: 0, Slot: 2, WID: 1,
		TensorID: 5, BlockSize: 256, Nexts: []uint32{64, Inf(1), 34, Inf(3)}}))
	// Keys at the int32 edges: the largest valid key and wire keys with
	// the high bit set, which decode negative.
	out = append(out, AppendSparsePacket(nil, &SparsePacket{
		Type: TypeSparseResult, TensorID: 3, NextKey: math.MaxInt32,
		Keys: []int32{math.MinInt32, -1, math.MaxInt32}, Values: []float32{1, 2, 3},
	}))
	// A tensor's short tail block between full blocks in column order:
	// the stride walk must hand it to the sequential one.
	out = append(out, AppendPacket(nil, midTailPacket()))
	return out
}

// midTailPacket is a 4-column packet of 8-element blocks whose second
// block, in column order, is the 3-element tail of a 75-element tensor:
// columns advance independently, so column 1 can reach the last row while
// columns 2 and 3 are a row behind.
func midTailPacket() *Packet {
	p := &Packet{Type: TypeData, Version: 3, Slot: 1, WID: 1, TensorID: 6, BlockSize: 8,
		Nexts: []uint32{Inf(0), Inf(1), 10, 11}}
	for _, b := range []struct{ idx, n int }{{8, 8}, {9, 3}, {6, 8}, {7, 8}} {
		d := make([]float32, b.n)
		for i := range d {
			d[i] = float32(b.idx*8+i) + 0.25
		}
		p.Blocks = append(p.Blocks, Block{Index: uint32(b.idx), Data: d})
	}
	return p
}

// checkWalksAgree holds the stride walk to the sequential one on buf: when
// fullBlocks accepts a packet's block run, walkBlocks must accept it too,
// with the total the stride walk assumes.
func checkWalksAgree(t *testing.T, buf []byte) {
	if len(buf) < headerLen {
		return
	}
	cols := int(buf[2])
	elemBytes := 4
	if buf[3] == DTypeF16 {
		elemBytes = 2
	}
	off := headerLen + 4*cols
	if cols == 0 || cols > MaxCols || len(buf) < off {
		return
	}
	mask := binary.LittleEndian.Uint64(buf[16:])
	bs := binary.LittleEndian.Uint32(buf[12:])
	k := bits.OnesCount64(mask)
	if !fullBlocks(buf, off, k, bs, elemBytes) {
		return
	}
	if total, err := walkBlocks(buf, off, mask, elemBytes); err != nil || total != k*int(bs) {
		t.Fatalf("stride walk accepted %d blocks of %d; sequential walk: total %d, err %v", k, bs, total, err)
	}
}

// chaosMutations derives deterministic corruptions of buf — the same
// damage the chaos fabric and a hostile network inflict: truncation,
// duplication (datagram concatenation), and bit flips.
func chaosMutations(buf []byte) [][]byte {
	var muts [][]byte
	for _, cut := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
		if cut >= 0 && cut <= len(buf) {
			muts = append(muts, buf[:cut])
		}
	}
	muts = append(muts, append(append([]byte(nil), buf...), buf...))
	for i := 0; i < len(buf); i += 1 + len(buf)/16 {
		m := append([]byte(nil), buf...)
		m[i] ^= 1 << uint(i%8)
		muts = append(muts, m)
	}
	return muts
}

// reencodable reports whether a decoded packet may be passed back to
// AppendPacket: the encoder panics (by contract) unless blocks arrive in
// strictly ascending column order, a property corrupted indices can break.
func reencodable(p *Packet) bool {
	if len(p.Nexts) == 0 || len(p.Nexts) > MaxCols {
		return false
	}
	prev := -1
	for _, b := range p.Blocks {
		col := int(b.Index) % len(p.Nexts)
		if col <= prev {
			return false
		}
		prev = col
	}
	return true
}

// packetsEquivalent compares two decoded packets field by field, treating
// nil and empty slices as equal (the reuse path recycles backing arrays,
// so its empty slices are non-nil).
func packetsEquivalent(a, b *Packet) bool {
	if a.Type != b.Type || a.Version != b.Version || a.DType != b.DType ||
		a.Slot != b.Slot || a.WID != b.WID || a.TensorID != b.TensorID ||
		a.BlockSize != b.BlockSize || len(a.Nexts) != len(b.Nexts) || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Nexts {
		if a.Nexts[i] != b.Nexts[i] {
			return false
		}
	}
	for i := range a.Blocks {
		if a.Blocks[i].Index != b.Blocks[i].Index || len(a.Blocks[i].Data) != len(b.Blocks[i].Data) {
			return false
		}
		for j, v := range a.Blocks[i].Data {
			w := b.Blocks[i].Data[j]
			if v != w && (v == v || w == w) { // NaN payloads compare equal
				return false
			}
		}
	}
	return true
}

// checkReuseDecode verifies the recycled-state decode path against the
// fresh-allocation path: same error outcome, same decoded packet, no stale
// state leaking from whatever the recycled packet and arena held before.
func checkReuseDecode(t *testing.T, dirty *Packet, scratch []float32, buf []byte) []float32 {
	fresh, freshErr := DecodePacket(buf)
	scratch, reuseErr := DecodePacketInto(dirty, scratch, buf)
	if (freshErr == nil) != (reuseErr == nil) {
		t.Fatalf("decode paths disagree: fresh err %v, reuse err %v", freshErr, reuseErr)
	}
	if freshErr == nil && !packetsEquivalent(fresh, dirty) {
		t.Fatalf("reuse decode leaked stale state:\n fresh %+v\n reuse %+v", fresh, dirty)
	}
	return scratch
}

// placeAt returns a copy of b whose first byte sits off bytes past a
// 4-byte boundary, capped at its length so an overrun faults.
func placeAt(b []byte, off int) []byte {
	raw := make([]byte, len(b)+8)
	start := int(-uintptr(unsafe.Pointer(&raw[0]))&3) + off
	copy(raw[start:], b)
	return raw[start : start+len(b) : start+len(b)]
}

// checkViewDecode runs the view decoder over buf placed at offsets 0-3 of
// an aligned buffer, through one recycled packet and arena (so the paths
// alternate over dirty state), and holds it to the copying decoder's
// result: same error outcome, same header, nexts and indices, and the
// same payload bits. Offset 0 is the aliasing path on little-endian
// builds; 1-3 must fall back to the copy, not fault.
func checkViewDecode(t *testing.T, buf []byte) {
	want, wantErr := DecodePacket(buf)
	var got Packet
	var scratch []float32
	for off := 0; off < 4; off++ {
		var err error
		scratch, err = DecodePacketView(&got, scratch, placeAt(buf, off))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("offset %d: view err %v, copy err %v", off, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !packetsEquivalent(want, &got) {
			t.Fatalf("offset %d: view decode differs:\n copy %+v\n view %+v", off, want, &got)
		}
		for i, b := range want.Blocks {
			for j, v := range b.Data {
				if w := got.Blocks[i].Data[j]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("offset %d block %d elem %d: bits %#x != %#x", off, i, j, math.Float32bits(w), math.Float32bits(v))
				}
			}
		}
	}
}

// checkSparseViewDecode is checkViewDecode for the key-value decoder.
func checkSparseViewDecode(t *testing.T, buf []byte) {
	want, wantErr := DecodeSparsePacket(buf)
	var got SparsePacket
	var keys []int32
	var vals []float32
	for off := 0; off < 4; off++ {
		var err error
		keys, vals, err = DecodeSparsePacketView(&got, keys, vals, placeAt(buf, off))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("offset %d: view err %v, copy err %v", off, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Type != want.Type || got.WID != want.WID || got.TensorID != want.TensorID ||
			got.NextKey != want.NextKey || len(got.Keys) != len(want.Keys) || len(got.Values) != len(want.Values) {
			t.Fatalf("offset %d: view decode differs:\n copy %+v\n view %+v", off, want, &got)
		}
		for i, k := range want.Keys {
			if got.Keys[i] != k || math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
				t.Fatalf("offset %d pair %d: (%d, %#x) != (%d, %#x)", off, i,
					got.Keys[i], math.Float32bits(got.Values[i]), k, math.Float32bits(want.Values[i]))
			}
		}
	}
}

// FuzzDecodePacket exercises the dense decoder on arbitrary and mutated
// inputs: no panics ever, the stride walk accepts nothing the sequential
// walk would not (checkWalksAgree), any buffer that decodes must survive an
// encode/decode round trip (byte-exact for float32 payloads), and the
// recycled-state reuse path (DecodePacketInto over a dirty packet and
// scratch arena) must agree with the fresh path exactly, as must the view
// decoder at every buffer alignment.
func FuzzDecodePacket(f *testing.F) {
	for _, seed := range seedPackets() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		// The reuse-path packet and arena are deliberately dirtied by every
		// successful decode in this run and by a seed decode up front, so a
		// decoder that fails to reset state cannot pass.
		dirty := &Packet{}
		scratch, _ := DecodePacketInto(dirty, nil, seedPackets()[0])
		check := func(b []byte) {
			checkWalksAgree(t, b)
			scratch = checkReuseDecode(t, dirty, scratch, b)
			checkViewDecode(t, b)
			p, err := DecodePacket(b)
			if err != nil {
				return
			}
			if !reencodable(p) {
				return
			}
			enc := AppendPacket(nil, p)
			q, err := DecodePacket(enc)
			if err != nil {
				t.Fatalf("re-decode of re-encoded packet failed: %v", err)
			}
			if p.DType == DTypeF32 {
				// Float32 payloads are bit-transparent, so encoding the
				// decoded packet must be idempotent.
				if enc2 := AppendPacket(nil, q); !bytes.Equal(enc, enc2) {
					t.Fatalf("f32 round trip not idempotent:\n  %x\n  %x", enc, enc2)
				}
			} else if len(q.Blocks) != len(p.Blocks) || q.Cols() != p.Cols() {
				// Half precision may renormalize NaN payloads; structure
				// must still survive.
				t.Fatalf("f16 round trip changed structure: %d/%d blocks, %d/%d cols",
					len(q.Blocks), len(p.Blocks), q.Cols(), p.Cols())
			}
		}
		check(buf)
		for _, m := range chaosMutations(buf) {
			check(m)
		}
	})
}

// FuzzDecodeSparsePacket is the key-value analogue; sparse payloads are
// always float32, so the round trip must be byte-exact whenever the
// original buffer has no trailing garbage. The view decoder must agree
// with the copying one at every buffer alignment.
func FuzzDecodeSparsePacket(f *testing.F) {
	for _, seed := range seedPackets() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		check := func(b []byte) {
			checkSparseViewDecode(t, b)
			p, err := DecodeSparsePacket(b)
			if err != nil {
				return
			}
			enc := AppendSparsePacket(nil, p)
			q, err := DecodeSparsePacket(enc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if enc2 := AppendSparsePacket(nil, q); !bytes.Equal(enc, enc2) {
				t.Fatalf("sparse round trip not idempotent:\n  %x\n  %x", enc, enc2)
			}
		}
		check(buf)
		for _, m := range chaosMutations(buf) {
			check(m)
		}
	})
}

// Huge declared lengths must fail cleanly rather than allocating wildly:
// a corrupted block-length field is bounded by the buffer check.
func TestDecodePacketHugeDeclaredLength(t *testing.T) {
	p := &Packet{Type: TypeData, BlockSize: 4, Nexts: []uint32{0},
		Blocks: []Block{{Index: 0, Data: []float32{1}}}}
	buf := AppendPacket(nil, p)
	// Block length field sits after nexts: header(24) + 4 + index(4).
	off := 24 + 4 + 4
	buf[off] = 0xFF
	buf[off+1] = 0xFF
	buf[off+2] = 0xFF
	buf[off+3] = 0x7F
	if _, err := DecodePacket(buf); err == nil {
		t.Fatal("accepted packet with 2^31 declared block length")
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in regression corpus under
// testdata/fuzz from seedPackets and their chaos mutations. Run with
// WIRE_CORPUS_GEN=1 after changing the wire format; normally it only
// verifies every corpus entry still parses without panicking.
func TestRegenerateFuzzCorpus(t *testing.T) {
	targets := []string{"FuzzDecodePacket", "FuzzDecodeSparsePacket"}
	if os.Getenv("WIRE_CORPUS_GEN") != "" {
		for _, target := range targets {
			dir := "testdata/fuzz/" + target
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			i := 0
			emit := func(buf []byte) {
				body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(buf)) + ")\n"
				name := fmt.Sprintf("%s/seed-%03d", dir, i)
				i++
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, seed := range seedPackets() {
				emit(seed)
				for _, m := range chaosMutations(seed) {
					emit(m)
				}
			}
		}
		return
	}
	for _, target := range targets {
		dir := "testdata/fuzz/" + target
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("regression corpus missing (regenerate with WIRE_CORPUS_GEN=1): %v", err)
		}
		if len(entries) == 0 {
			t.Fatalf("empty corpus in %s", dir)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(dir + "/" + e.Name())
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitN(raw, []byte("\n"), 3)
			if len(lines) < 2 || string(lines[0]) != "go test fuzz v1" {
				t.Fatalf("%s/%s: not a go fuzz corpus file", dir, e.Name())
			}
			body := string(lines[1])
			if len(body) < len("[]byte(\"\")") || body[:7] != "[]byte(" {
				t.Fatalf("%s/%s: unexpected corpus entry %q", dir, e.Name(), body)
			}
			s, err := strconv.Unquote(body[7 : len(body)-1])
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, e.Name(), err)
			}
			_, _ = DecodePacket([]byte(s))
			_, _ = DecodeSparsePacket([]byte(s))
		}
	}
}

// FuzzDecodeView holds the view-plane decoders — membership views, acks
// and stale-epoch refusals (DecodeView) and the TypeCheckpoint envelope
// (DecodeCheckpoint), all of which an aggregator or worker takes straight
// off the network — to: no panic on any bytes; whatever decodes re-encodes
// to a prefix-identical message of the declared size that decodes to the
// same value; member lists are copies (view traffic outlives its buffer)
// while a checkpoint's result is a view that never reaches past the
// buffer or the length the envelope declares.
func FuzzDecodeView(f *testing.F) {
	f.Add(AppendView(nil, &ViewPacket{Type: TypeView, Epoch: 3, Workers: []int32{0, 1, 2}, Aggregators: []int32{100, 300}}))
	f.Add(AppendView(nil, &ViewPacket{Type: TypeViewAck, WID: 7, Epoch: 9}))
	f.Add(AppendView(nil, &ViewPacket{Type: TypeStaleEpoch, Reason: ReasonStaleEpoch, TensorID: 0xABCD, Epoch: 2, Workers: []int32{4}, Aggregators: []int32{-5}}))
	for _, seed := range seedPackets()[:3] {
		p, _ := DecodePacket(seed)
		f.Add(AppendCheckpoint(nil, &CheckpointFrame{Shard: 1, NS: 77, Epoch: 12}, p))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		check := func(b []byte) {
			if v, err := DecodeView(b); err == nil {
				enc := AppendView(nil, v)
				if len(enc) != EncodedViewSize(v) || len(enc) > len(b) || !bytes.Equal(enc, b[:len(enc)]) {
					t.Fatalf("view re-encodes to\n  %x\nfrom\n  %x", enc, b)
				}
				own := append([]byte(nil), b...)
				w, _ := DecodeView(own)
				for i := range own {
					own[i] = 0xFF
				}
				if enc2 := AppendView(nil, w); !bytes.Equal(enc, enc2) {
					t.Fatal("decoded view aliases its buffer")
				}
			}
			if c, err := DecodeCheckpoint(b); err == nil {
				if len(c.Result) > 0 && &c.Result[0] != &b[CheckpointHeaderLen] {
					t.Fatal("checkpoint result is not a view of the frame")
				}
				if len(c.Result) > len(b)-CheckpointHeaderLen || cap(c.Result) > cap(b)-CheckpointHeaderLen {
					t.Fatalf("checkpoint result of %d bytes in a %d-byte frame", len(c.Result), len(b))
				}
				if p, err := DecodePacket(c.Result); err == nil && reencodable(p) {
					enc := AppendCheckpoint(nil, &c, p)
					d, err := DecodeCheckpoint(enc)
					if err != nil || d.Shard != c.Shard || d.NS != c.NS || d.Epoch != c.Epoch || len(d.Result) != EncodedPacketSize(p) {
						t.Fatalf("checkpoint round trip: %+v, %v", d, err)
					}
				}
			}
		}
		check(buf)
		for _, m := range chaosMutations(buf) {
			check(m)
		}
	})
}

// FuzzDecodeControl is the same contract for the job/admission control
// plane, which every aggregator decodes from whoever can reach it.
func FuzzDecodeControl(f *testing.F) {
	f.Add(AppendControl(nil, &ControlPacket{Type: TypeJobOpen, WID: 1, TensorID: 5 << 20, Workers: 4, Tenant: "prod", Job: "ranker"}))
	f.Add(AppendControl(nil, &ControlPacket{Type: TypeJobReject, Reason: ReasonQuota, TensorID: 5 << 20}))
	f.Add(AppendControl(nil, &ControlPacket{Type: TypeOpReject, Reason: ReasonDraining, TensorID: 5<<20 | 9}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		check := func(b []byte) {
			c, err := DecodeControl(b)
			if err != nil {
				return
			}
			if !IsControlType(c.Type) || len(c.Tenant) > MaxControlName || len(c.Job) > MaxControlName {
				t.Fatalf("decoded an unencodable control packet: %+v", c)
			}
			enc := AppendControl(nil, c)
			if len(enc) != EncodedControlSize(c) || len(enc) > len(b) || !bytes.Equal(enc, b[:len(enc)]) {
				t.Fatalf("control packet re-encodes to\n  %x\nfrom\n  %x", enc, b)
			}
			if tid, ok := PeekWID(b); !ok || tid != c.WID {
				t.Fatalf("PeekWID %d, %v; decoded %d", tid, ok, c.WID)
			}
		}
		check(buf)
		for _, m := range chaosMutations(buf) {
			check(m)
		}
	})
}
