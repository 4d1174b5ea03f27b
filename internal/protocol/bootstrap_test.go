package protocol

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Tests for the header-only bootstrap (WorkerMachine.Start attaches a
// column's first block only if it is non-zero) and the aggregator's
// round-0 contract that makes it safe (aggSlot.cur). Everything runs on
// the schedule harness: no goroutines, no clocks.

// The small scope the bootstrap tests enumerate over: six blocks of four
// elements, two columns. One stream has first-in-column
// blocks {0, 1}; two streams (shards [0,3) and [3,6)) have {0, 1, 3, 4}.
const (
	bootBlocks = 6
	bootBS     = 4
	bootCols   = 2
)

func bootFirsts(streams int) []int {
	var firsts []int
	eff := EffectiveStreams(streams, bootBlocks)
	for s := 0; s < eff; s++ {
		lo, hi := Shard(s, eff, bootBlocks)
		for c := 0; c < bootCols; c++ {
			if f := FirstInColumn(lo, hi, c, bootCols); f >= 0 {
				firsts = append(firsts, f)
			}
		}
	}
	return firsts
}

// bootInputs builds one tensor per worker. Bit (w*len(firsts)+i) of mask
// decides whether worker w's i-th first-in-column block is non-zero; the
// other blocks follow a fixed per-worker pattern with zeros in it, so the
// rounds after the bootstrap exercise the look-ahead too. Values are small
// integers: every accumulator mode sums them exactly, in any order.
func bootInputs(workers int, firsts []int, mask uint) [][]float32 {
	isFirst := map[int]int{}
	for i, f := range firsts {
		isFirst[f] = i
	}
	out := make([][]float32, workers)
	for w := range out {
		d := make([]float32, bootBlocks*bootBS)
		for b := 0; b < bootBlocks; b++ {
			nz := (b+w)%3 != 0
			if i, ok := isFirst[b]; ok {
				nz = mask>>(uint(w*len(firsts)+i))&1 == 1
			}
			if !nz {
				continue
			}
			for e := 0; e < bootBS; e++ {
				d[b*bootBS+e] = float32((w+1)*100 + b*10 + e)
			}
		}
		out[w] = d
	}
	return out
}

// wireTally is a harness fault hook that records what every worker put on
// the wire — encoding each packet for real — before applying the
// schedule's own perturbation.
type wireTally struct {
	t          *testing.T
	bytes      []int64 // per worker: encoded bytes of every emitted packet
	empties    []int64 // per worker: packets without a block
	bootBlocks []int64 // per worker: blocks that rode in bootstrap packets
	bootSeen   map[[2]int]bool
	perturb    func(n, src int, e *Emit) int
}

func newWireTally(t *testing.T, workers int, perturb func(n, src int, e *Emit) int) *wireTally {
	return &wireTally{
		t:          t,
		bytes:      make([]int64, workers),
		empties:    make([]int64, workers),
		bootBlocks: make([]int64, workers),
		bootSeen:   map[[2]int]bool{},
		perturb:    perturb,
	}
}

func (wt *wireTally) fault(n, src int, e *Emit) int {
	if p := e.Packet; e.Dst == aggNode {
		enc := wire.AppendPacket(nil, p)
		if len(enc) != wire.EncodedPacketSize(p) {
			wt.t.Fatalf("EncodedPacketSize %d, AppendPacket %d bytes", wire.EncodedPacketSize(p), len(enc))
		}
		wt.bytes[src] += int64(len(enc))
		if len(p.Blocks) == 0 {
			wt.empties[src]++
		}
		// The first Version-0 packet of a stream is its bootstrap (a later
		// one is the retransmission of it).
		k := [2]int{src, int(p.Slot)}
		if p.Version == 0 && !wt.bootSeen[k] {
			wt.bootSeen[k] = true
			wt.bootBlocks[src] += int64(len(p.Blocks))
			want := 24 + 4*p.Cols() + len(p.Blocks)*(8+4*bootBS)
			if len(enc) != want {
				wt.t.Fatalf("bootstrap of %d blocks encodes to %d bytes, want %d", len(p.Blocks), len(enc), want)
			}
			for _, b := range p.Blocks {
				if allZero(b.Data) {
					wt.t.Fatalf("worker %d bootstrapped zero block %d", src, b.Index)
				}
			}
		}
	}
	if wt.perturb != nil {
		return wt.perturb(n, src, e)
	}
	return 1
}

func allZero(d []float32) bool {
	return !slices.ContainsFunc(d, func(v float32) bool { return v != 0 })
}

// TestBootstrapElisionExhaustive enumerates every zero/non-zero assignment
// of the first-in-column blocks — all-zero columns, all-zero shards and
// tensors, one contributor, every contributor — for 2-3 workers and 1-2
// streams, in reliable and versioned mode (the latter also with the very
// first bootstrap dropped and duplicated), under each accumulator. Every
// run must give the bit-exact sum, send no zero block, and account for
// every block exactly once.
func TestBootstrapElisionExhaustive(t *testing.T) {
	schedules := []struct {
		name     string
		reliable bool
		perturb  func(n, src int, e *Emit) int
		lossFree bool
	}{
		{name: "reliable", reliable: true, lossFree: true},
		{name: "versioned", lossFree: true},
		{name: "versioned-bootstrap-dropped", perturb: func(n, src int, e *Emit) int {
			if n == 0 {
				return 0
			}
			return 1
		}},
		{name: "versioned-bootstrap-duplicated", lossFree: true, perturb: func(n, src int, e *Emit) int {
			if n == 0 {
				return 2
			}
			return 1
		}},
	}
	accums := []struct {
		name string
		set  func(*Config)
	}{
		{"float", func(*Config) {}},
		{"deterministic", func(c *Config) { c.DeterministicOrder = true }},
		{"quantized", func(c *Config) { c.QuantizeScale = 1 << 10 }},
	}
	for _, g := range []struct{ workers, streams int }{{2, 1}, {2, 2}, {3, 1}} {
		firsts := bootFirsts(g.streams)
		for _, sc := range schedules {
			for _, ac := range accums {
				t.Run(fmt.Sprintf("w%d_s%d/%s/%s", g.workers, g.streams, sc.name, ac.name), func(t *testing.T) {
					for mask := uint(0); mask < 1<<uint(g.workers*len(firsts)); mask++ {
						cfg := Config{BlockSize: bootBS, FusionWidth: bootCols, Streams: g.streams,
							Reliable: sc.reliable, RetransmitTimeout: time.Millisecond}
						ac.set(&cfg)
						inputs := bootInputs(g.workers, firsts, mask)
						wt := newWireTally(t, g.workers, sc.perturb)
						p := newHarness(t, cfg, len(inputs))
						p.fault = wt.fault
						work := p.begin(1, inputs)
						if !p.converge(8) {
							t.Fatalf("mask %#x: machines did not converge", mask)
						}
						assertExact(t, fmt.Sprintf("mask %#x", mask), work, refSum(inputs))
						for w := range work {
							s := p.ops[w].Stats()
							nz := int64(tensor.ComputeBitmap(tensor.FromSlice(inputs[w]), bootBS).Count())
							if got := wt.bootBlocks[w] + s.BlocksSent; got != nz {
								t.Fatalf("mask %#x: worker %d sent %d+%d blocks, has %d non-zero", mask, w, wt.bootBlocks[w], s.BlocksSent, nz)
							}
							if s.BlocksSkipped != bootBlocks-nz {
								t.Fatalf("mask %#x: worker %d skipped %d blocks, has %d zero", mask, w, s.BlocksSkipped, bootBlocks-nz)
							}
							if s.BytesSent != wt.bytes[w] {
								t.Fatalf("mask %#x: worker %d BytesSent %d, encoded %d", mask, w, s.BytesSent, wt.bytes[w])
							}
							if !sc.lossFree {
								continue
							}
							// No retransmission: the bytes are the headers
							// plus the non-zero blocks, nothing else.
							if want := s.PacketsSent*(24+4*bootCols) + nz*(8+4*bootBS); s.BytesSent != want {
								t.Fatalf("mask %#x: worker %d sent %d bytes in %d packets for %d non-zero blocks, want %d",
									mask, w, s.BytesSent, s.PacketsSent, nz, want)
							}
							if !sc.reliable {
								// One packet per round per stream, so as many as
								// results; the blockless ones are the acks.
								if s.PacketsSent != s.ResultsRecvd || s.AcksSent != wt.empties[w] {
									t.Fatalf("mask %#x: worker %d: %+v, %d blockless packets", mask, w, s, wt.empties[w])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestBootstrapForceDense pins ForceDense to the behaviour it had before
// the bootstrap went header-only: zero blocks and all, the first block of
// every column rides in the bootstrap, byte for byte the packet built here
// by hand, and the whole collective costs the dense closed form.
func TestBootstrapForceDense(t *testing.T) {
	const workers, streams = 2, 2
	firsts := bootFirsts(streams)
	inputs := bootInputs(workers, firsts, 0) // every first-in-column block zero
	cfg := Config{Workers: workers, Aggregators: []int{aggNode}, BlockSize: bootBS, FusionWidth: bootCols,
		Streams: streams, Reliable: true, ForceDense: true}

	data := append([]float32(nil), inputs[1]...)
	m := NewWorkerMachine(cfg, 1, 7)
	var eb EmitBuf
	m.Start(NewDenseView(data, bootBS, true), 0, &eb)
	if eb.Len() != streams {
		t.Fatalf("%d bootstrap packets, want %d", eb.Len(), streams)
	}
	for s, e := range eb.Emits() {
		lo, hi := Shard(s, streams, bootBlocks)
		want := &wire.Packet{Type: wire.TypeData, DType: wire.DTypeF32, Slot: uint16(s), WID: 1,
			TensorID: 7, BlockSize: bootBS}
		for c := 0; c < bootCols; c++ {
			f := FirstInColumn(lo, hi, c, bootCols)
			want.Blocks = append(want.Blocks, wire.Block{Index: uint32(f), Data: data[f*bootBS : (f+1)*bootBS]})
			next := wire.Inf(c)
			if f+bootCols < hi {
				next = uint32(f + bootCols)
			}
			want.Nexts = append(want.Nexts, next)
		}
		if got, exp := wire.AppendPacket(nil, e.Packet), wire.AppendPacket(nil, want); !bytes.Equal(got, exp) {
			t.Fatalf("stream %d bootstrap:\n got  %x\n want %x", s, got, exp)
		}
	}

	p, work := newDense(t, cfg, inputs)
	p.drain()
	if !p.allDone() {
		t.Fatal("machines did not converge")
	}
	assertExact(t, "ForceDense", work, refSum(inputs))
	for w := range work {
		// Two shards of three blocks in two columns: two rounds each.
		s := p.ops[w].Stats()
		want := WorkerStats{BlocksSent: bootBlocks - streams*bootCols, PacketsSent: 4, ResultsRecvd: 4,
			BytesSent: 4*(24+4*bootCols) + bootBlocks*(8+4*bootBS)}
		if s != want {
			t.Fatalf("worker %d: %+v, want %+v", w, s, want)
		}
	}
}

// TestBootstrapElisionFailover takes an aggregator away at every point of
// a versioned collective whose bootstraps are mostly header-only, twice:
// its successor built from an up-to-date mirror, and from one that is a
// round behind (the result went out, the mirror frame carrying it was lost
// — the successor must fast-forward, round 0 included, with columns nobody
// has contributed to yet).
func TestBootstrapElisionFailover(t *testing.T) {
	cfg := Config{BlockSize: bootBS, FusionWidth: bootCols, Streams: 2, Aggregators: []int{100, 200},
		DeterministicOrder: true, RetransmitTimeout: time.Millisecond}
	// Worker 1 alone holds first block 3; first blocks 0, 1 and 4 are zero
	// everywhere, so stream 0's bootstrap round concludes empty.
	firsts := bootFirsts(2)
	inputs := bootInputs(3, firsts, 1<<uint(1*len(firsts)+2))
	fastForwards, roundZero := failoverSweep(t, cfg, inputs, "header-only bootstraps")
	if fastForwards == 0 || roundZero == 0 {
		t.Fatalf("stale restores fast-forwarded %d times, %d of them out of round 0", fastForwards, roundZero)
	}
}
