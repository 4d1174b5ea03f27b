package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Tests for the standby's side of result mirroring (failover.go): what its
// network input may and may not do to the shadow machines. They drive the
// admission gate's view-plane handler directly, the way the Recv consumer
// does.

const (
	mirPrimary = 10 // an aggregator of the standby's view
	mirOther   = 11 // the other one
	mirStandby = 12
	mirEpoch   = 2
	mirBS      = 4
)

// newStandbyNode builds an unstarted standby aggregator whose view lists
// mirPrimary and mirOther.
func newStandbyNode(t testing.TB, shards int) *Aggregator {
	t.Helper()
	nw := transport.NewNetwork(2, 64)
	conn := nw.AddNode(mirStandby)
	t.Cleanup(func() { conn.Close() })
	a, err := NewAggregator(conn, Config{
		Workers: 2, Aggregators: []int{mirPrimary, mirOther}, BlockSize: mirBS, AggShards: shards,
		View:    &protocol.View{Epoch: mirEpoch, Workers: []int{0, 1}, Aggregators: []int{mirPrimary, mirOther}},
		Standby: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mirResult is round ver's result of tensor (ns, seq) on slot: two columns,
// one block, or both columns done when final.
func mirResult(slot uint16, ns, seq uint32, ver uint8, final bool) *wire.Packet {
	p := &wire.Packet{Type: wire.TypeResult, Version: ver, Slot: slot, WID: mirPrimary,
		TensorID: protocol.TidFor(ns, seq), BlockSize: mirBS}
	if final {
		p.Nexts = []uint32{wire.Inf(0), wire.Inf(1)}
		return p
	}
	b := 2 * uint32(ver)
	p.Nexts = []uint32{b + 2, b + 3}
	p.Blocks = []wire.Block{{Index: b, Data: []float32{float32(seq), float32(ver), 1, 2}}}
	return p
}

// offerFrame hands the gate one frame from node from, in a pooled buffer
// it gives away, and reports whether a shadow machine adopted it.
func offerFrame(a *Aggregator, from int, epoch uint32, res *wire.Packet) bool {
	f := wire.CheckpointFrame{NS: protocol.TidNamespace(res.TensorID), Epoch: epoch}
	return offerRaw(a, from, wire.AppendCheckpoint(transport.GetBuf(wire.CheckpointHeaderLen + wire.EncodedPacketSize(res))[:0], &f, res))
}

func offerRaw(a *Aggregator, from int, buf []byte) bool {
	before := obsAggCkStored.Load()
	if err := a.gate.viewMsg(wire.TypeCheckpoint, transport.Message{From: from, Data: buf}); err != nil {
		panic(err)
	}
	return obsAggCkStored.Load() != before
}

func pooled(b []byte) []byte { return append(transport.GetBuf(len(b))[:0], b...) }

// poolHeld is what is out of the two pools a standby draws on: transport
// buffers and aggregator slot state.
func poolHeld() [2]int64 {
	bg, bp := transport.PoolBalance()
	sg, sp := protocol.AggSlotPoolBalance()
	return [2]int64{bg - bp, sg - sp}
}

func TestStandbyFrameRules(t *testing.T) {
	held0 := poolHeld()
	a := newStandbyNode(t, 1)
	good := mirResult(0, 0, 1, 3, false)

	// Who may write, and when.
	if offerFrame(a, 0, mirEpoch, good) {
		t.Fatal("stored a frame from a node the view does not list as an aggregator")
	}
	if offerFrame(a, mirPrimary, mirEpoch-1, good) {
		t.Fatal("stored a frame stamped with an epoch older than the view")
	}

	// What a frame must be.
	bad := func(name string, mut func(*wire.Packet, *[]byte)) {
		t.Helper()
		p := mirResult(0, 0, 1, 3, false)
		f := wire.CheckpointFrame{Epoch: mirEpoch}
		var raw []byte
		mut(p, &raw)
		if raw == nil {
			raw = wire.AppendCheckpoint(nil, &f, p)
		}
		if offerRaw(a, mirPrimary, pooled(raw)) {
			t.Fatalf("stored a frame with %s", name)
		}
	}
	bad("a data packet inside", func(p *wire.Packet, _ *[]byte) { p.Type = wire.TypeData })
	bad("another block size", func(p *wire.Packet, _ *[]byte) { p.BlockSize = 2 * mirBS })
	bad("a block longer than a block", func(p *wire.Packet, _ *[]byte) { p.Blocks[0].Data = make([]float32, mirBS+1) })
	bad("a namespace the envelope does not name", func(p *wire.Packet, _ *[]byte) { p.TensorID = protocol.TidFor(5, 1) })
	bad("a truncated result", func(p *wire.Packet, raw *[]byte) {
		b := wire.AppendCheckpoint(nil, &wire.CheckpointFrame{Epoch: mirEpoch}, p)
		*raw = b[:len(b)-3]
	})
	bad("blocks out of column order", func(p *wire.Packet, raw *[]byte) {
		// AppendPacket would panic on it (and so would a successor
		// replaying it): encode two blocks in order, then swap their indices.
		p.Blocks = append(p.Blocks, wire.Block{Index: p.Blocks[0].Index + 1, Data: make([]float32, mirBS)})
		b := wire.AppendCheckpoint(nil, &wire.CheckpointFrame{Epoch: mirEpoch}, p)
		first := wire.CheckpointHeaderLen + 24 + 4*2
		second := first + 8 + 4*mirBS
		b[first], b[second] = b[second], b[first]
		*raw = b
	})
	bad("no columns", func(_ *wire.Packet, raw *[]byte) {
		b := wire.AppendCheckpoint(nil, &wire.CheckpointFrame{Epoch: mirEpoch}, good)
		b[wire.CheckpointHeaderLen+2] = 0
		*raw = b
	})
	if n := a.CheckpointsFrom(mirPrimary); n != 0 {
		t.Fatalf("store holds %d frames after refusing everything", n)
	}

	// Newest wins; a replayed older round never rolls a slot back.
	if !offerFrame(a, mirPrimary, mirEpoch, good) || !offerFrame(a, mirPrimary, mirEpoch+1, mirResult(0, 0, 1, 4, false)) {
		t.Fatal("refused a well-formed frame from a listed aggregator")
	}
	if offerFrame(a, mirPrimary, mirEpoch, good) || offerFrame(a, mirPrimary, mirEpoch, mirResult(0, 0, 1, 4, false)) {
		t.Fatal("stored a round not newer than the one held")
	}
	if !offerFrame(a, mirOther, mirEpoch, good) {
		t.Fatal("one primary's frames shadowed another's")
	}
	if n := a.CheckpointsFrom(mirPrimary); n != 1 {
		t.Fatalf("store holds %d frames of one tensor's rounds, want the newest", n)
	}

	// A final result concludes its tensor for good, and at most
	// ArchiveDepth of them are kept per lane.
	if !offerFrame(a, mirPrimary, mirEpoch, mirResult(0, 0, 1, 9, true)) {
		t.Fatal("refused a final result")
	}
	if offerFrame(a, mirPrimary, mirEpoch, mirResult(0, 0, 1, 10, false)) {
		t.Fatal("a late round reopened a finished tensor")
	}
	for seq := uint32(2); seq < 2*protocol.ArchiveDepth; seq++ {
		offerFrame(a, mirPrimary, mirEpoch, mirResult(0, 0, seq, 0, false))
		offerFrame(a, mirPrimary, mirEpoch, mirResult(0, 0, seq, 1, true))
	}
	if n := a.CheckpointsFrom(mirPrimary); n != protocol.ArchiveDepth {
		t.Fatalf("store holds %d frames of a lane with %d finished tensors, want %d", n, 2*protocol.ArchiveDepth-1, protocol.ArchiveDepth)
	}
	if offerFrame(a, mirPrimary, mirEpoch, mirResult(0, 0, 3, 0, false)) {
		t.Fatal("a tensor ArchiveDepth sequences behind the newest was taken for live")
	}

	// A tensor whose final frame was lost does not pin its entry: it is
	// dropped once the lane is ArchiveDepth sequences past it.
	offerFrame(a, mirPrimary, mirEpoch, mirResult(1, 0, 1, 0, false))
	offerFrame(a, mirPrimary, mirEpoch, mirResult(1, 0, 1+protocol.ArchiveDepth, 0, false))
	if n := a.CheckpointsFrom(mirPrimary); n != protocol.ArchiveDepth+1 {
		t.Fatalf("store holds %d frames, want %d: the abandoned tensor is still there", n, protocol.ArchiveDepth+1)
	}

	// An active aggregator stores for nobody but the node it replaced.
	if err := a.Activate(protocol.View{Epoch: mirEpoch + 1, Aggregators: []int{mirStandby}}); err != nil {
		t.Fatal(err)
	}
	if offerFrame(a, mirOther, mirEpoch+1, mirResult(2, 0, 40, 0, false)) {
		t.Fatal("an active aggregator stored a peer's frame")
	}
	if !offerFrame(a, mirPrimary, mirEpoch, mirResult(2, 0, 40, 0, false)) {
		t.Fatal("a frame of the replaced primary, queued behind the activation, was refused")
	}

	// Nothing stays out of a pool: frames are released as they are ruled
	// on, shadows at take-over or when Run returns.
	m := protocol.NewAggregatorMachine(a.cfg.proto(), mirStandby)
	a.adoptShadow(m, 0, 0)
	if n := a.CheckpointsFrom(mirPrimary); n != 0 {
		t.Fatalf("%d frames of the replaced primary left after take-over", n)
	}
	if a.CheckpointsFrom(mirOther) != 1 {
		t.Fatal("take-over consumed another primary's frames")
	}
	if m.ActiveSlots() != 2 { // (1, seq 17) and (2, seq 40); the abandoned (1, seq 1) is concluded
		t.Fatalf("successor machine adopted %d live slots, want 2", m.ActiveSlots())
	}
	m.Release()
	a.releaseShadows()
	if held := poolHeld(); held != held0 {
		t.Fatalf("pooled buffers and slots out: %v, were %v", held, held0)
	}
}

// TestStandbyShadowShards: the successor lays the adopted lanes out by its
// own shard count, whatever the dead primary's was.
func TestStandbyShadowShards(t *testing.T) {
	a := newStandbyNode(t, 2)
	for slot := uint16(0); slot < 4; slot++ {
		if !offerFrame(a, mirPrimary, mirEpoch, mirResult(slot, 0, 1, 5, false)) {
			t.Fatalf("slot %d refused", slot)
		}
	}
	if err := a.Activate(protocol.View{Epoch: mirEpoch + 1, Aggregators: []int{mirStandby}}); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		m := protocol.NewAggregatorMachine(a.cfg.proto(), mirStandby)
		a.adoptShadow(m, shard, 0)
		ck := m.Checkpoint()
		if len(ck.Slots) != 2 || int(ck.Slots[0].Slot) != shard || int(ck.Slots[1].Slot) != shard+2 || ck.Slots[0].Round != 6 {
			t.Fatalf("shard %d adopted %+v", shard, ck.Slots)
		}
		again := protocol.NewAggregatorMachine(a.cfg.proto(), mirStandby)
		a.adoptShadow(again, shard, 0)
		if again.ActiveSlots() != 0 {
			t.Fatalf("shard %d: lanes adopted twice", shard)
		}
		m.Release()
	}
}

// machineState renders what a successor machine holds, for comparison:
// slots, archive and finished sets, with every packet in its wire bytes
// (adopted packets are always encodable) so that recycled and fresh
// storage compare equal.
func machineState(m *protocol.AggregatorMachine) string {
	ck := m.Checkpoint()
	var b bytes.Buffer
	for _, s := range ck.Slots {
		fmt.Fprintf(&b, "slot %d tid %#x cols %d bs %d dt %d round %d cur %v count %d seen %v last %x\n",
			s.Slot, s.TensorID, s.Cols, s.BlockSize, s.DType, s.Round, s.Cur, s.Count, s.Seen, wire.AppendPacket(nil, s.LastRes))
	}
	for _, ar := range ck.Archive {
		fmt.Fprintf(&b, "final %d tid %#x size %d %x\n", ar.Slot, ar.TensorID, ar.Size, wire.AppendPacket(nil, &ar.Packet))
	}
	for _, f := range ck.Finished {
		fmt.Fprintf(&b, "finished %d ns %d upto %d except %v\n", f.Slot, f.NS, f.UpTo, f.Except)
	}
	return b.String()
}

// FuzzStandbyFrame feeds the standby's frame handler a fuzzer-written
// sequence of frames — well-formed results in any order and version,
// frames from strangers and from the past, damaged envelopes and payloads,
// raw bytes — and checks three things: nothing panics; the standby holds
// at most 2 x ArchiveDepth results per (namespace, slot), nothing from a
// stranger, and no pooled buffer or slot once it is done; and the machine a
// take-over builds is exactly the machine that had adopted, in order, every
// frame a listed aggregator sent in a current epoch whose envelope and
// payload decode and agree on the namespace — what some valid sequence of
// results would give, since AdoptResult (which the protocol tests hold to
// real result sequences) is the only way in.
func FuzzStandbyFrame(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 3, 0, 0, 0, 1, 0, 1, 0, 4, 1, 0})
	f.Add([]byte{0, 1, 1, 20, 1, 0, 2, 1, 1, 0, 2, 3, 0, 9, 4, 2, 0, 1, 1, 2, 1, 0, 10, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 0, 7, 0, 200, 1, 1}, 3))
	f.Add([]byte("\x00\x01\x00\x01\x00\x01,0"))
	f.Fuzz(func(t *testing.T, script []byte) {
		held0 := poolHeld()
		a := newStandbyNode(t, 1)
		refs := map[uint32]*protocol.AggregatorMachine{}
		lanes := map[[2]uint32]bool{}
		for ; len(script) >= 8; script = script[8:] {
			op := script[:8]
			from := mirPrimary
			if op[0]&1 == 1 {
				from = int(op[0] >> 1 % 4) // a worker, or a node nobody knows
			}
			ns := uint32(op[4] % 2)
			res := mirResult(uint16(op[2]%3), ns, 1+uint32(op[3]%48), op[5], op[6]&1 == 1)
			if op[7]&1 == 1 {
				res.Nexts = res.Nexts[:1] // another geometry on the same slot
			}
			fr := wire.CheckpointFrame{NS: ns, Epoch: mirEpoch - 1 + uint32(op[1]%3)}
			switch op[6] >> 1 % 8 {
			case 1:
				res.Type = wire.TypeData
			case 2:
				res.BlockSize++
			case 3:
				fr.NS++
			}
			buf := wire.AppendCheckpoint(transport.GetBuf(wire.CheckpointHeaderLen + wire.EncodedPacketSize(res))[:0], &fr, res)
			switch op[6] >> 1 % 8 {
			case 4:
				buf = buf[:len(buf)-1-int(op[7])%(len(buf)-1)]
			case 5:
				copy(buf[wire.CheckpointHeaderLen:], script)
			case 6:
				buf[int(op[7])%len(buf)] ^= 1 << (op[0] >> 5)
			}
			if got, err := wire.DecodeCheckpoint(buf); err == nil && from == mirPrimary && got.Epoch >= mirEpoch {
				if p, err := wire.DecodePacket(got.Result); err == nil && protocol.TidNamespace(p.TensorID) == got.NS && p.Slot < maxShadowSlot {
					if refs[got.NS] == nil {
						refs[got.NS] = protocol.NewAggregatorMachine(a.cfg.proto(), mirStandby)
					}
					if refs[got.NS].AdoptResult(p) {
						lanes[[2]uint32{got.NS, uint32(p.Slot)}] = true
					}
				}
			}
			offerRaw(a, from, buf)
			if n := a.CheckpointsFrom(mirPrimary); n > len(lanes)*2*protocol.ArchiveDepth {
				t.Fatalf("standby holds %d results over %d lanes", n, len(lanes))
			}
			for stranger := 0; stranger < 4; stranger++ {
				if a.CheckpointsFrom(stranger) != 0 {
					t.Fatalf("store holds a frame from node %d", stranger)
				}
			}
		}
		for ns, ref := range refs {
			m := protocol.NewAggregatorMachine(a.cfg.proto(), mirStandby)
			a.adoptShadow(m, 0, ns)
			if got, want := machineState(m), machineState(ref); got != want {
				t.Fatalf("namespace %d: take-over built\n%s\nadopting every frame on arrival gives\n%s", ns, got, want)
			}
			m.Release()
			ref.Release()
		}
		if n := a.CheckpointsFrom(mirPrimary); n != 0 {
			t.Fatalf("%d results left on the standby after every namespace was taken over", n)
		}
		a.releaseShadows()
		if held := poolHeld(); held != held0 {
			t.Fatalf("pooled buffers and slots out: %v, were %v", held, held0)
		}
	})
}

// TestMirrorCommitsCostNothingUnconfigured: a node with no checkpoint peer
// and no standby role allocates nothing for failover, at construction or
// per result.
func TestMirrorCommitsCostNothingUnconfigured(t *testing.T) {
	nw := transport.NewNetwork(2, 64)
	conn := nw.AddNode(5)
	defer conn.Close()
	a, err := NewAggregator(conn, Config{Workers: 2, Aggregators: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	if a.shadows != nil || !reflect.DeepEqual(a.gate.dec, decodeState{}) {
		t.Fatal("failover state built for a node that takes no part in it")
	}
}

// mirrorFrame is one mirror frame's trip at the live shape, a 32 x 256
// result: the primary's wire.AppendCheckpoint into a pooled buffer, then
// the standby's whole handler — DecodeCheckpoint, the view decode and
// AdoptResult on a warm shadow. Each call sends the slot's next round, so
// every frame is adopted. It returns the call and the frame's size.
func mirrorFrame(tb testing.TB) (func(), int) {
	tb.Helper()
	const cols, bs = 32, 256
	nw := transport.NewNetwork(2, 64)
	conn := nw.AddNode(mirStandby)
	tb.Cleanup(func() { conn.Close() })
	a, err := NewAggregator(conn, Config{
		Workers: 2, Aggregators: []int{mirPrimary}, BlockSize: bs,
		View:    &protocol.View{Epoch: mirEpoch, Workers: []int{0, 1}, Aggregators: []int{mirPrimary}},
		Standby: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res := &wire.Packet{Type: wire.TypeResult, WID: mirPrimary, TensorID: protocol.TidFor(0, 1), BlockSize: bs}
	for c := uint32(0); c < cols; c++ {
		res.Nexts = append(res.Nexts, cols+c)
		res.Blocks = append(res.Blocks, wire.Block{Index: c, Data: make([]float32, bs)})
	}
	f := wire.CheckpointFrame{NS: protocol.TidNamespace(res.TensorID), Epoch: mirEpoch}
	n := wire.CheckpointHeaderLen + wire.EncodedPacketSize(res)
	frame := func() {
		res.Version++
		if !offerRaw(a, mirPrimary, wire.AppendCheckpoint(transport.GetBuf(n)[:0], &f, res)) {
			tb.Fatalf("round %d's frame was not adopted", res.Version)
		}
	}
	frame() // the shadow machine and its slot
	frame() // both result shells
	return frame, n
}

// BenchmarkMirrorFrame is what one mirror frame costs the primary and the
// standby together (mirrorFrame), in ns per frame; MB/s counts the frame's
// bytes.
func BenchmarkMirrorFrame(b *testing.B) {
	frame, n := mirrorFrame(b)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// TestStandbyFrameAllocatesNothing: once the shadow is warm, a mirror
// frame's trip allocates nothing on either side.
func TestStandbyFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	frame, _ := mirrorFrame(t)
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("a mirror frame allocates %.1f times", n)
	}
}
