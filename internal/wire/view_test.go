package wire

import (
	"bytes"
	"testing"
)

func TestViewPacketRoundTrip(t *testing.T) {
	cases := []*ViewPacket{
		{Type: TypeView, Epoch: 3, Workers: []int32{0, 1, 2}, Aggregators: []int32{100, 300}},
		{Type: TypeViewAck, WID: 7, Epoch: 9},
		{Type: TypeStaleEpoch, Reason: ReasonStaleEpoch, TensorID: 0xABCD, Epoch: 2,
			Workers: []int32{4}, Aggregators: []int32{5}},
	}
	for _, p := range cases {
		buf := AppendView(nil, p)
		if len(buf) != EncodedViewSize(p) {
			t.Fatalf("type %d: encoded %d bytes, EncodedViewSize says %d", p.Type, len(buf), EncodedViewSize(p))
		}
		if !IsViewType(PeekType(buf)) {
			t.Fatalf("type %d: PeekType/IsViewType missed it", p.Type)
		}
		got, err := DecodeView(buf)
		if err != nil {
			t.Fatalf("type %d: %v", p.Type, err)
		}
		if got.Type != p.Type || got.Reason != p.Reason || got.WID != p.WID ||
			got.TensorID != p.TensorID || got.Epoch != p.Epoch {
			t.Fatalf("header mismatch: %+v != %+v", got, p)
		}
		if len(got.Workers) != len(p.Workers) || len(got.Aggregators) != len(p.Aggregators) {
			t.Fatalf("member lists: %+v != %+v", got, p)
		}
		for i := range p.Workers {
			if got.Workers[i] != p.Workers[i] {
				t.Fatalf("worker %d: %d != %d", i, got.Workers[i], p.Workers[i])
			}
		}
		for i := range p.Aggregators {
			if got.Aggregators[i] != p.Aggregators[i] {
				t.Fatalf("aggregator %d: %d != %d", i, got.Aggregators[i], p.Aggregators[i])
			}
		}
	}
}

func TestViewPacketDecodeErrors(t *testing.T) {
	if _, err := DecodeView(make([]byte, viewHeaderLen-1)); err == nil {
		t.Fatal("short header decoded")
	}
	// Member lists longer than the buffer.
	p := &ViewPacket{Type: TypeView, Epoch: 1, Workers: []int32{1, 2, 3}}
	buf := AppendView(nil, p)
	if _, err := DecodeView(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated member list decoded")
	}
	// A checkpoint frame is not a view packet.
	ck := AppendCheckpoint(nil, &CheckpointFrame{}, &Packet{Type: TypeResult, Nexts: []uint32{Inf(0)}})
	if _, err := DecodeView(ck); err == nil {
		t.Fatal("checkpoint frame decoded as view")
	}
}

func TestViewAckWIDPeek(t *testing.T) {
	// The gate attributes acks to connections by transport source, but the
	// WID must still peek like every non-dense format (offset 2).
	buf := AppendView(nil, &ViewPacket{Type: TypeViewAck, WID: 42, Epoch: 1})
	wid, ok := PeekWID(buf)
	if !ok || wid != 42 {
		t.Fatalf("PeekWID = %d, %v", wid, ok)
	}
}

func TestCheckpointFrameRoundTrip(t *testing.T) {
	res := &Packet{Type: TypeResult, Version: 9, Slot: 3, WID: 200, TensorID: 77<<20 | 5, BlockSize: 2,
		Nexts:  []uint32{6, Inf(1)},
		Blocks: []Block{{Index: 4, Data: []float32{1.5, -2}}}}
	f := &CheckpointFrame{Shard: 3, NS: 77, Epoch: 12}
	buf := AppendCheckpoint(nil, f, res)
	if len(buf) != CheckpointHeaderLen+EncodedPacketSize(res) {
		t.Fatalf("encoded %d bytes, want %d + %d", len(buf), CheckpointHeaderLen, EncodedPacketSize(res))
	}
	if PeekType(buf) != TypeCheckpoint || !IsViewType(TypeCheckpoint) {
		t.Fatal("checkpoint type not routable")
	}
	got, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != f.Shard || got.NS != f.NS || got.Epoch != f.Epoch {
		t.Fatalf("round trip mismatch: %+v != %+v", got, f)
	}
	// The payload is the result's own encoding, in place: no second codec,
	// no copy.
	if !bytes.Equal(got.Result, AppendPacket(nil, res)) {
		t.Fatalf("payload is not the result packet:\n %x\n %x", got.Result, AppendPacket(nil, res))
	}
	if &got.Result[0] != &buf[CheckpointHeaderLen] {
		t.Fatal("decoded payload is a copy of the wire buffer")
	}
	if p, err := DecodePacket(got.Result); err != nil || !packetsEquivalent(p, res) {
		t.Fatalf("payload decodes to %+v, %v", p, err)
	}
	if _, err := DecodeCheckpoint(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := DecodeCheckpoint(buf[:CheckpointHeaderLen-1]); err == nil {
		t.Fatal("truncated envelope decoded")
	}
	if _, err := DecodeCheckpoint(AppendView(nil, &ViewPacket{Type: TypeView, Epoch: 1})); err == nil {
		t.Fatal("view packet decoded as checkpoint")
	}
}

func TestViewTypesDisjointFromControl(t *testing.T) {
	for _, vt := range []uint8{TypeView, TypeViewAck, TypeStaleEpoch, TypeCheckpoint} {
		if IsControlType(vt) {
			t.Fatalf("view type %d claimed by the control plane", vt)
		}
		if !IsViewType(vt) {
			t.Fatalf("view type %d not recognized", vt)
		}
	}
	for _, ct := range []uint8{TypeData, TypeResult, TypeSparseData, TypeSparseResult} {
		if IsViewType(ct) {
			t.Fatalf("data type %d claimed by the view plane", ct)
		}
	}
}
