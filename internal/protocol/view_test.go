package protocol

import (
	"fmt"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Failover handoff, exercised entirely at the machine layer on the
// schedule harness: a machine is killed mid-collective and its successor
// built from the results the dead machine committed.

func TestViewValidate(t *testing.T) {
	if err := (View{Epoch: 0, Aggregators: []int{1}}).Validate(); err == nil {
		t.Fatal("epoch 0 validated")
	}
	if err := (View{Epoch: 1}).Validate(); err == nil {
		t.Fatal("aggregator-less view validated")
	}
}

// TestFailoverPumpHandoff kills one of two aggregators mid-collective and
// resumes its successor from the mirror. The surviving run must
// converge to results bit-identical to an undisturbed run, the standby
// must complete rounds of its own, and replays landing at the survivor
// must be version-filtered rather than double-merged.
func TestFailoverPumpHandoff(t *testing.T) {
	cfg, inputs := traceCfg(100, 200), traceInputs()

	// Reference: same config, no failover.
	ref, refWork := newDense(t, cfg, inputs)
	ref.drain()
	if !ref.allDone() {
		t.Fatal("reference run did not converge")
	}
	assertExact(t, "reference", refWork, refWork[0])

	for _, killAfter := range []int{1, 7, 25} {
		p, work := newDense(t, cfg, inputs)
		p.step(killAfter)
		p.kill(200, 300)
		if !p.converge(64) {
			t.Fatalf("killAfter=%d: machines did not converge", killAfter)
		}
		assertExact(t, fmt.Sprintf("killAfter=%d, against the reference", killAfter), work, refWork[0])
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
	cfg, inputs := traceCfg(100), traceInputs()
	p, work := newDense(t, cfg, inputs)
	p.step(9)
	// Swap the live machine for a clone built from its own mirror: pure
	// state transfer, no network involved.
	orig := p.ams[100]
	clone := p.successor(100, 100, 0)
	p.ams[100] = clone
	adopted := len(p.mirror)
	if !p.converge(64) {
		t.Fatal("machines did not converge after restore swap")
	}
	assertExact(t, "after the restore swap", work, refSum(inputs))
	if adopted == 0 || clone.Stats().RoundsCompleted == 0 {
		t.Fatalf("clone adopted %d results and completed %d rounds: not a mid-collective swap", adopted, clone.Stats().RoundsCompleted)
	}
	// Adoption never goes back: the original is level with, or ahead of,
	// everything in its own mirror.
	for _, m := range p.mirror[:adopted] {
		pkt, err := wire.DecodePacket(m.buf)
		if err != nil {
			t.Fatal(err)
		}
		if orig.AdoptResult(pkt) {
			t.Fatalf("machine adopted a result it had itself committed: slot %d round %d", pkt.Slot, pkt.Version)
		}
	}
}

// TestSparseMultiAggregatorRouting is the regression test for the sparse
// path hardcoding Aggregators[0]: key-value traffic must route by tensor
// ID through AggregatorFor, so distinct sparse tensors spread across the
// aggregator set and every worker picks the same aggregator per tensor.
func TestSparseMultiAggregatorRouting(t *testing.T) {
	cfg := Config{Workers: 2, Aggregators: []int{100, 200}, Reliable: true, BlockSize: 2}.WithDefaults()
	for _, tc := range []struct {
		tid     uint32
		wantDst int
	}{
		{tid: 1, wantDst: 200}, // 1 % 2 == 1 -> second aggregator
		{tid: 2, wantDst: 100}, // 2 % 2 == 0 -> first aggregator
	} {
		ins := []*tensor.COO{
			cooOf(map[int32]float32{3: 1, 7: 2, 51: 4, 99: 5}),
			cooOf(map[int32]float32{7: 10, 8: 11, 51: 12}),
		}
		h := runSparseFIFO(t, cfg, tc.tid, ins, func(dst int, p *wire.SparsePacket) {
			if p.Type == wire.TypeSparseData && dst != tc.wantDst {
				t.Fatalf("tid %d: worker %d sent sparse packet to node %d, want %d", tc.tid, p.WID, dst, tc.wantDst)
			}
		})
		assertKV(t, fmt.Sprintf("tid %d", tc.tid), h.kv, map[int32]float32{3: 1, 7: 12, 8: 11, 51: 16, 99: 5})
		// The other aggregator must have seen nothing.
		other := 300 - tc.wantDst
		if s := h.ams[other].Stats(); s.PacketsRecvd != 0 {
			t.Fatalf("tid %d: idle aggregator %d received %d packets", tc.tid, other, s.PacketsRecvd)
		}
	}
}
