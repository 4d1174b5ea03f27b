package protocol

import (
	"testing"
	"time"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Failover handoff, exercised entirely at the machine layer: no
// transport, no goroutines. A small multi-aggregator pump kills a machine
// mid-collective and builds its successor from the results the dead
// machine committed.

func TestViewValidate(t *testing.T) {
	if err := (View{Epoch: 0, Aggregators: []int{1}}).Validate(); err == nil {
		t.Fatal("epoch 0 validated")
	}
	if err := (View{Epoch: 1}).Validate(); err == nil {
		t.Fatal("aggregator-less view validated")
	}
}

// multiPump is the trace pump generalized to several aggregator nodes,
// with a kill switch: killing a node builds a fresh standby from the
// node's mirror, drops everything queued toward the corpse, and rebinds
// every worker. Delivery stays synchronous and deterministic.
type multiPump struct {
	t    *testing.T
	cfg  Config
	wms  []*WorkerMachine
	ams  map[int]*AggregatorMachine
	q    []tmsg
	now  time.Duration
	eb   EmitBuf
	aggs []int // current serving list, round-robin order

	// mirror is what a driver with standbys sends them: a copy of every
	// Commit result, in emission order, tagged with the node that emitted
	// it. rounds is the same for every concluded round's result, committed
	// or not: in reliable mode, which commits final results only, more
	// than the mirror. heirOf[id] lists the nodes whose position id took
	// over, oldest first: a standby of id has been sent their results too.
	mirror []tmsg
	rounds []tmsg
	heirOf map[int][]int
}

func newMultiPump(t *testing.T, cfg Config, inputs [][]float32) (*multiPump, [][]float32) {
	t.Helper()
	cfg.Workers = len(inputs)
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p := &multiPump{t: t, cfg: cfg, ams: make(map[int]*AggregatorMachine),
		aggs: append([]int(nil), cfg.Aggregators...), heirOf: make(map[int][]int)}
	for _, id := range cfg.Aggregators {
		p.ams[id] = NewAggregatorMachine(cfg, id)
	}
	return p, p.begin(1, inputs)
}

// begin starts collective tid over copies of inputs, which it returns, on
// fresh worker machines bound to the current serving list.
func (p *multiPump) begin(tid uint32, inputs [][]float32) [][]float32 {
	cfg := p.cfg
	cfg.Aggregators = p.aggs
	p.wms = p.wms[:0]
	work := make([][]float32, len(inputs))
	for w := range inputs {
		work[w] = append([]float32(nil), inputs[w]...)
		p.wms = append(p.wms, NewWorkerMachine(cfg, w, tid))
	}
	for w, m := range p.wms {
		view := NewDenseView(work[w], cfg.BlockSize, cfg.ForceDense)
		p.eb.Reset()
		m.Start(view, p.now, &p.eb)
		p.push(w, p.eb.Emits())
	}
	return work
}

func (p *multiPump) push(src int, emits []Emit) {
	if e := Committed(emits); e != nil {
		p.mirror = append(p.mirror, tmsg{src: src, pkt: testClone(e.Packet)})
	}
	for i := range emits {
		p.q = append(p.q, tmsg{src: src, dst: emits[i].Dst, pkt: testClone(emits[i].Packet)})
	}
}

func (p *multiPump) step(budget int) {
	for n := 0; len(p.q) > 0 && n < budget; n++ {
		m := p.q[0]
		p.q = p.q[1:]
		if am := p.ams[m.dst]; am != nil {
			p.eb.Reset()
			before := am.Stats().RoundsCompleted
			if err := am.HandlePacket(Msg{Dense: m.pkt}, &p.eb); err != nil {
				p.t.Fatalf("aggregator %d: %v", m.dst, err)
			}
			if am.Stats().RoundsCompleted != before {
				p.rounds = append(p.rounds, tmsg{src: m.dst, pkt: testClone(p.eb.Emits()[0].Packet)})
			}
			p.push(m.dst, p.eb.Emits())
			continue
		}
		if m.dst >= len(p.wms) {
			continue // destined to a dead aggregator: the fabric eats it
		}
		p.eb.Reset()
		if err := p.wms[m.dst].HandlePacket(m.pkt, p.now, &p.eb); err != nil {
			p.t.Fatalf("worker %d: %v", m.dst, err)
		}
		p.push(m.dst, p.eb.Emits())
	}
}

func (p *multiPump) tick() {
	var latest time.Duration
	for _, m := range p.wms {
		if d, ok := m.NextTimeout(); ok && d > latest {
			latest = d
		}
	}
	p.now = latest + time.Nanosecond
	for w, m := range p.wms {
		p.eb.Reset()
		if err := m.HandleTimeout(p.now, &p.eb); err != nil {
			p.t.Fatalf("worker %d timeout: %v", w, err)
		}
		p.push(w, p.eb.Emits())
	}
}

func (p *multiPump) allDone() bool {
	for _, m := range p.wms {
		if !m.Done() {
			return false
		}
	}
	return true
}

// successor builds the machine a standby at node id would take over dead's
// position with: a fresh one that has adopted, in order, the results dead
// (and the nodes dead itself succeeded) committed, and nothing else. The
// newest behind of them never reached the standby.
func (p *multiPump) successor(dead, id, behind int) *AggregatorMachine {
	return p.successorOf(p.mirror, dead, id, behind)
}

// successorOf is successor built from log instead of the mirror.
func (p *multiPump) successorOf(log []tmsg, dead, id, behind int) *AggregatorMachine {
	from := map[int]bool{dead: true}
	for _, n := range p.heirOf[dead] {
		from[n] = true
	}
	var frames []*wire.Packet
	for _, m := range log {
		if from[m.src] {
			frames = append(frames, m.pkt)
		}
	}
	if behind > len(frames) {
		behind = len(frames)
	}
	sm := NewAggregatorMachine(p.cfg, id)
	for _, f := range frames[:len(frames)-behind] {
		sm.AdoptResult(f)
	}
	return sm
}

// kill replaces dead's machine with a successor at node standbyID built
// from dead's mirror, removes the corpse (in-flight traffic toward it is
// lost), and rebinds every worker to the updated serving list.
func (p *multiPump) kill(dead, standbyID int) {
	p.killBehind(dead, standbyID, 0)
}

// killBehind is kill with a standby that missed dead's last behind frames.
func (p *multiPump) killBehind(dead, standbyID, behind int) {
	sm := p.successor(dead, standbyID, behind)
	p.heirOf[standbyID] = append(append([]int(nil), p.heirOf[dead]...), dead)
	delete(p.ams, dead)
	p.ams[standbyID] = sm
	kept := p.q[:0]
	for _, m := range p.q {
		if m.dst != dead {
			kept = append(kept, m)
		}
	}
	p.q = kept
	for i, id := range p.aggs {
		if id == dead {
			p.aggs[i] = standbyID
		}
	}
	for w, m := range p.wms {
		p.eb.Reset()
		m.Rebind(p.aggs, p.now, &p.eb)
		p.push(w, p.eb.Emits())
	}
}

// TestFailoverPumpHandoff kills one of two aggregators mid-collective and
// resumes its successor from the mirror. The surviving run must
// converge to results bit-identical to an undisturbed run, the standby
// must complete rounds of its own, and replays landing at the survivor
// must be version-filtered rather than double-merged.
func TestFailoverPumpHandoff(t *testing.T) {
	cfg := Config{
		BlockSize:          4,
		FusionWidth:        4,
		Streams:            2,
		Aggregators:        []int{100, 200},
		DeterministicOrder: true,
		RetransmitTimeout:  time.Millisecond,
	}
	inputs := traceInputs()

	// Reference: same config, no failover.
	ref, refWork := newMultiPump(t, cfg, inputs)
	ref.step(1 << 20)
	if !ref.allDone() {
		t.Fatal("reference run did not converge")
	}

	for _, killAfter := range []int{1, 7, 25} {
		p, work := newMultiPump(t, cfg, inputs)
		p.step(killAfter)
		p.kill(200, 300)
		p.step(1 << 20)
		for i := 0; i < 64 && !p.allDone(); i++ {
			p.tick()
			p.step(1 << 20)
		}
		if !p.allDone() {
			t.Fatalf("killAfter=%d: machines did not converge", killAfter)
		}
		for w := range work {
			for i, v := range work[w] {
				if v != refWork[w][i] {
					t.Fatalf("killAfter=%d: worker %d elem %d: %v != reference %v",
						killAfter, w, i, v, refWork[w][i])
				}
			}
		}
		if s := p.ams[300].Stats(); s.RoundsCompleted == 0 {
			t.Fatalf("killAfter=%d: standby completed no rounds: %+v", killAfter, s)
		}
	}
}

// TestCheckpointRoundTrip swaps a mid-collective aggregator for a fresh
// machine that adopted the results it had committed, with nothing lost in
// flight: the half-collected rounds the swap forgets come back by
// retransmission, and the sum is exact.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Config{
		BlockSize:          4,
		FusionWidth:        4,
		Streams:            2,
		Aggregators:        []int{100},
		DeterministicOrder: true,
		RetransmitTimeout:  time.Millisecond,
	}
	inputs := traceInputs()
	p, work := newMultiPump(t, cfg, inputs)
	p.step(9)
	// Swap the live machine for a clone built from its own mirror: pure
	// state transfer, no network involved.
	orig := p.ams[100]
	clone := p.successor(100, 100, 0)
	p.ams[100] = clone
	adopted := len(p.mirror)
	p.step(1 << 20)
	for i := 0; i < 64 && !p.allDone(); i++ {
		p.tick()
		p.step(1 << 20)
	}
	if !p.allDone() {
		t.Fatal("machines did not converge after restore swap")
	}
	ref := refSum(inputs)
	for w := range work {
		for i, v := range work[w] {
			if v != ref[i] {
				t.Fatalf("worker %d elem %d: %v != %v", w, i, v, ref[i])
			}
		}
	}
	if adopted == 0 || clone.Stats().RoundsCompleted == 0 {
		t.Fatalf("clone adopted %d results and completed %d rounds: not a mid-collective swap", adopted, clone.Stats().RoundsCompleted)
	}
	// Adoption never goes back: the original is level with, or ahead of,
	// everything in its own mirror.
	for _, m := range p.mirror[:adopted] {
		if orig.AdoptResult(m.pkt) {
			t.Fatalf("machine adopted a result it had itself committed: slot %d round %d", m.pkt.Slot, m.pkt.Version)
		}
	}
}

// TestSparseMultiAggregatorRouting is the regression test for the sparse
// path hardcoding Aggregators[0]: key-value traffic must route by tensor
// ID through AggregatorFor, so distinct sparse tensors spread across the
// aggregator set and every worker picks the same aggregator per tensor.
func TestSparseMultiAggregatorRouting(t *testing.T) {
	cfg := Config{Workers: 2, Aggregators: []int{100, 200}, Reliable: true, BlockSize: 2}.WithDefaults()
	mk := func(pairs map[int32]float32) *tensor.COO {
		c := tensor.NewCOO(100)
		for k := int32(0); k < 100; k++ {
			if v, ok := pairs[k]; ok {
				c.Append(k, v)
			}
		}
		return c
	}
	for _, tc := range []struct {
		tid     uint32
		wantDst int
	}{
		{tid: 1, wantDst: 200}, // 1 % 2 == 1 -> second aggregator
		{tid: 2, wantDst: 100}, // 2 % 2 == 0 -> first aggregator
	} {
		ins := []*tensor.COO{
			mk(map[int32]float32{3: 1, 7: 2, 51: 4, 99: 5}),
			mk(map[int32]float32{7: 10, 8: 11, 51: 12}),
		}
		ams := map[int]*AggregatorMachine{
			100: NewAggregatorMachine(cfg, 100),
			200: NewAggregatorMachine(cfg, 200),
		}
		var wms []*SparseWorkerMachine
		type smsg struct {
			dst int
			pkt *wire.SparsePacket
		}
		var q []smsg
		var eb EmitBuf
		push := func(src int, emits []Emit) {
			for i := range emits {
				if src < len(ins) && emits[i].Dst != tc.wantDst {
					t.Fatalf("tid %d: worker %d sent sparse packet to node %d, want %d",
						tc.tid, src, emits[i].Dst, tc.wantDst)
				}
				p := new(wire.SparsePacket)
				wire.CopySparsePacketInto(p, emits[i].Sparse)
				q = append(q, smsg{dst: emits[i].Dst, pkt: p})
			}
		}
		for w := range ins {
			m, err := NewSparseWorkerMachine(cfg, w, tc.tid, ins[w])
			if err != nil {
				t.Fatal(err)
			}
			wms = append(wms, m)
			eb.Reset()
			m.Start(&eb)
			push(w, eb.Emits())
		}
		for len(q) > 0 {
			m := q[0]
			q = q[1:]
			if am := ams[m.dst]; am != nil {
				eb.Reset()
				if err := am.HandlePacket(Msg{Sparse: m.pkt}, &eb); err != nil {
					t.Fatal(err)
				}
				push(m.dst, eb.Emits())
				continue
			}
			eb.Reset()
			if err := wms[m.dst].HandlePacket(m.pkt, &eb); err != nil {
				t.Fatal(err)
			}
			push(m.dst, eb.Emits())
		}
		want := map[int32]float32{3: 1, 7: 12, 8: 11, 51: 16, 99: 5}
		for w, m := range wms {
			if !m.Done() {
				t.Fatalf("tid %d: worker %d not done", tc.tid, w)
			}
			res := m.Result()
			if res.Len() != len(want) {
				t.Fatalf("tid %d: worker %d: %d keys, want %d", tc.tid, w, res.Len(), len(want))
			}
			for i, k := range res.Keys {
				if res.Values[i] != want[k] {
					t.Fatalf("tid %d worker %d key %d: %v != %v", tc.tid, w, k, res.Values[i], want[k])
				}
			}
		}
		// The other aggregator must have seen nothing.
		other := 300 - tc.wantDst
		if s := ams[other].Stats(); s.PacketsRecvd != 0 {
			t.Fatalf("tid %d: idle aggregator %d received %d packets", tc.tid, other, s.PacketsRecvd)
		}
	}
}
