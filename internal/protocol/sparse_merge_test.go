package protocol

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// mergeValueBits are the values the merge oracle draws from besides
// ordinary floats: ±0, ±smallest denormal, ±Inf, and quiet and signalling
// NaNs of both signs with distinct payloads. A value that is not folded
// must come out with the same bits; NaN payloads are what tell held +
// packet from packet + held, since amd64 and arm64 propagate the first
// operand's.
var mergeValueBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, // ±smallest denormal
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00001, 0xffc00abc, // quiet NaNs
	0x7f800003, 0xff812345, // signalling NaNs
}

// mergeValue maps a byte to a value: the specials above, or an ordinary
// float of mixed magnitude, so that the order three contributions fold in
// shows in the bits.
func mergeValue(b byte) float32 {
	if int(b) < len(mergeValueBits) {
		return math.Float32frombits(mergeValueBits[b])
	}
	v := float32(int(b)-128) * 0.37
	if b%3 == 0 {
		v *= 1e8
	}
	return v
}

// kvStream cuts one worker's strictly ascending run into data packets
// ending after each index in cuts (and after the last pair), each
// announcing the first key of the packet after it, InfKey after the last:
// the packets a worker sends. An empty run is one empty packet.
func kvStream(wid int, keys []int32, vals []float32, cuts []bool) []*wire.SparsePacket {
	var out []*wire.SparsePacket
	from := 0
	for i := range keys {
		if i == len(keys)-1 || cuts[i] {
			out = append(out, &wire.SparsePacket{Type: wire.TypeSparseData, WID: uint16(wid), TensorID: 1,
				Keys: keys[from : i+1], Values: vals[from : i+1]})
			from = i + 1
		}
	}
	if len(out) == 0 {
		out = append(out, &wire.SparsePacket{Type: wire.TypeSparseData, WID: uint16(wid), TensorID: 1})
	}
	for i, p := range out {
		p.NextKey = wire.InfKey
		if i+1 < len(out) {
			p.NextKey = uint32(out[i+1].Keys[0])
		}
	}
	return out
}

// foldArrival is the scalar fold of one arriving packet into ref: a key's
// first value copied, every later one added as held + packet.
func foldArrival(ref map[int32]float32, p *wire.SparsePacket) {
	for i, k := range p.Keys {
		if held, ok := ref[k]; ok {
			ref[k] = held + p.Values[i]
		} else {
			ref[k] = p.Values[i]
		}
	}
}

// mergeWorld is a harness holding only the aggregator, with each
// worker's packets (queues[w]) queued on its link. At the end of a
// schedule its check holds what the aggregator flushed to worker 0 to
// the scalar fold of the same arrivals (foldArrival). Keys must come out
// strictly ascending, and every value bit for bit. The packets are a
// worker's stream, so the aggregator must refuse none of them, in any
// order.
func mergeWorld(tb testing.TB, cfg Config, queues [][]*wire.SparsePacket, what string) *harness {
	h := newHarness(tb, cfg, cfg.Workers)
	ref := map[int32]float32{}
	h.observe = func(_ *frame, msg Msg) { foldArrival(ref, msg.Sparse) }
	h.check = func(end bool) error {
		if !end {
			return nil
		}
		if h.ams[aggNode].ActiveSlots() != 0 {
			return fmt.Errorf("%s: every stream ended, and the aggregation state is still open", what)
		}
		var gotK []int32
		var gotV []float32
		for _, f := range h.q {
			if f.dst == 0 {
				p, err := wire.DecodeSparsePacket(f.buf)
				if err != nil {
					return err
				}
				gotK, gotV = append(gotK, p.Keys...), append(gotV, p.Values...)
			}
		}
		want := slices.Sorted(maps.Keys(ref))
		if !slices.Equal(gotK, want) {
			return fmt.Errorf("%s: flushed keys %v, folded keys %v", what, gotK, want)
		}
		for i, k := range want {
			if g, r := math.Float32bits(gotV[i]), math.Float32bits(ref[k]); g != r {
				return fmt.Errorf("%s: key %d: flushed %#08x, fold %#08x", what, k, g, r)
			}
		}
		return nil
	}
	for w, q := range queues {
		for _, p := range q {
			h.inject(w, aggNode, wire.AppendSparsePacket(nil, p))
		}
	}
	return h
}

// intoAggregator is the moves that deliver some worker's next packet: a
// reliable fabric's schedules.
func intoAggregator(h *harness, _ int) []string { return onHeads(h, aggNode, "deliver") }

// TestSparseMergeMatchesFold: 2 and 3 workers with random strictly
// ascending runs over a narrow key range (so they collide), cut into
// packets at random, values drawn from the specials and ordinary floats,
// delivered in every FIFO-consistent order. What the aggregator flushes
// equals the scalar fold of the same arrivals, bit for bit.
func TestSparseMergeMatchesFold(t *testing.T) {
	cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true, BlockSize: 2, FusionWidth: 1}
	rng := rand.New(rand.NewSource(39))
	schedules := 0
	for trial := 0; trial < 200; trial++ {
		cfg.Workers = 2 + trial%2
		maxPackets := 4
		if cfg.Workers == 3 {
			maxPackets = 3
		}
		queues := make([][]*wire.SparsePacket, cfg.Workers)
		for w := range queues {
			n := rng.Intn(7)
			keys := make([]int32, 0, n)
			for k := int32(rng.Intn(3)); len(keys) < n; k += 1 + int32(rng.Intn(2)) {
				keys = append(keys, k)
			}
			vals := make([]float32, n)
			cuts := make([]bool, n)
			for i, packets := 0, 1; i < n; i++ {
				b := byte(rng.Intn(256))
				if rng.Intn(2) == 0 { // half of them specials
					b = byte(rng.Intn(len(mergeValueBits)))
				}
				vals[i] = mergeValue(b)
				if packets < maxPackets && rng.Intn(3) == 0 { // bound the schedules
					cuts[i] = true
					packets++
				}
			}
			queues[w] = kvStream(w, keys, vals, cuts)
		}
		what := fmt.Sprintf("trial %d, %d workers", trial, cfg.Workers)
		_, n := walk(func() *harness { return mergeWorld(t, cfg, queues, what) }, intoAggregator)
		schedules += int(n)
	}
	t.Logf("%d schedules", schedules)
}

// FuzzSparseMerge holds the merge to the scalar fold on inputs built from
// bytes: the worker count, each worker's run (key gaps, values from
// mergeValue, where its packets end) and the delivery order.
func FuzzSparseMerge(f *testing.F) {
	f.Add([]byte{0, 4, 0, 8, 1, 6, 2, 7, 0x81, 1, 3, 5, 0, 6, 1, 2, 0x80, 9, 1, 0, 1})
	f.Add([]byte{1, 3, 0x80, 7, 0x80, 8, 9, 9, 2, 0, 1, 0, 2, 1, 0x81, 6, 0x80, 4, 2, 1, 0, 2, 1})
	f.Add([]byte{0, 0, 5, 0x82, 200, 0, 50, 1, 3, 0x80, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := Config{Workers: 2 + int(next()%2), Aggregators: []int{aggNode}, Reliable: true, BlockSize: 2, FusionWidth: 1}.WithDefaults()
		queues := make([][]*wire.SparsePacket, cfg.Workers)
		for w := range queues {
			n := int(next() % 16)
			keys := make([]int32, n)
			vals := make([]float32, n)
			cuts := make([]bool, n)
			k := int32(-1)
			for i := range keys {
				b := next()
				k += 1 + int32(b%4)
				keys[i], cuts[i] = k, b&0x80 != 0
				vals[i] = mergeValue(next())
			}
			queues[w] = kvStream(w, keys, vals, cuts)
		}
		h := mergeWorld(t, cfg, queues, "fuzz")
		for ms := intoAggregator(h, 0); len(ms) > 0; ms = intoAggregator(h, 0) {
			if err := h.apply(ms[int(next())%len(ms)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.check(true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSparseBelowWatermarkRefused: a packet with a key below the flushed
// prefix cannot be merged — its keys may already have been multicast, and
// a flush is never resent — so the aggregator refuses it with
// tensor.ErrKeyOrder and leaves the aggregate as it was. So it does a
// packet whose keys are not strictly ascending, or whose keys and values
// differ in number; on a tensor not yet open such a packet opens nothing.
func TestSparseBelowWatermarkRefused(t *testing.T) {
	cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true}.WithDefaults()
	pkt := func(wid int, next uint32, keys []int32, vals []float32) *wire.SparsePacket {
		return &wire.SparsePacket{Type: wire.TypeSparseData, WID: uint16(wid), TensorID: 1, NextKey: next, Keys: keys, Values: vals}
	}
	am := NewAggregatorMachine(cfg, aggNode)
	var eb EmitBuf
	for _, p := range []*wire.SparsePacket{
		pkt(0, 10, []int32{1, 2}, []float32{1, 2}),
		pkt(1, 10, []int32{1, 3}, []float32{4, 8}),
	} {
		if err := am.HandlePacket(Msg{Sparse: p}, &eb); err != nil {
			t.Fatal(err)
		}
	}
	var flushed []int32
	for _, e := range eb.Emits() {
		if e.Dst == 0 {
			flushed = append(flushed, e.Sparse.Keys...)
		}
	}
	if !slices.Equal(flushed, []int32{1, 2, 3}) {
		t.Fatalf("first flush %v, want [1 2 3]", flushed)
	}
	snapshot := func() string {
		var b strings.Builder
		for _, tid := range slices.Sorted(maps.Keys(am.sparse)) {
			sa := am.sparse[tid]
			fmt.Fprintf(&b, "tid %d keys %v vals %v flushed %d next %v sent %d\n", tid, sa.keys, sa.vals, sa.flushed, sa.nextKey, sa.sent)
		}
		return b.String()
	}
	before := snapshot()
	for _, tc := range []struct {
		name string
		p    *wire.SparsePacket
	}{
		{"below the watermark", pkt(0, wire.InfKey, []int32{2}, []float32{16})},
		{"straddling the watermark", pkt(0, wire.InfKey, []int32{9, 11}, []float32{16, 32})},
		{"duplicate key", pkt(0, wire.InfKey, []int32{12, 12}, []float32{16, 32})},
		{"descending keys", pkt(0, wire.InfKey, []int32{14, 12}, []float32{16, 32})},
		{"more keys than values", pkt(0, wire.InfKey, []int32{12, 13}, []float32{16})},
	} {
		eb.Reset()
		err := am.HandlePacket(Msg{Sparse: tc.p}, &eb)
		if !errors.Is(err, tensor.ErrKeyOrder) {
			t.Fatalf("%s: err = %v, want tensor.ErrKeyOrder", tc.name, err)
		}
		if after := snapshot(); after != before || eb.Len() != 0 {
			t.Fatalf("%s: state %s -> %s, %d emits", tc.name, before, after, eb.Len())
		}
	}
	fresh := NewAggregatorMachine(cfg, aggNode)
	if err := fresh.HandlePacket(Msg{Sparse: pkt(0, wire.InfKey, []int32{5, 5}, []float32{1, 2})}, &eb); !errors.Is(err, tensor.ErrKeyOrder) || fresh.ActiveSlots() != 0 {
		t.Fatalf("non-strict first packet: err %v, %d slots open", err, fresh.ActiveSlots())
	}
}
