package core

import (
	"errors"
	"testing"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// resultPacket encodes a minimal TypeResult packet for tensor tid, the
// kind of message the receive pump routes to a live dense operation.
func resultPacket(tid uint32) []byte {
	return wire.AppendPacket(nil, &wire.Packet{
		Type:      wire.TypeResult,
		Version:   1,
		TensorID:  tid,
		BlockSize: 16,
		Nexts:     []uint32{0},
	})
}

// TestEndOpDrainsQueuedMessages is the leak-regression test for the
// recvPump lifecycle race: messages delivered to an operation that ends
// before reading them must have their pooled buffers recycled by endOp's
// drain, not stranded in the queue. If the drain in opQueue.finish is
// removed (reintroducing the old delete-without-drain endOp), the leak
// audit below catches the unreturned buffers.
func TestEndOpDrainsQueuedMessages(t *testing.T) {
	audit := obs.StartLeakAudit()
	nw := transport.NewNetwork(1, 64)
	w, err := NewWorker(nw.Conn(0), Config{Workers: 1, Aggregators: []int{1}, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}

	tid, st, _, err := w.job.beginOp()
	if err != nil {
		t.Fatal(err)
	}
	q := st.q
	// Queue messages the operation will never read. The buffers come
	// from the transport pool, as on the live receive path.
	enc := resultPacket(tid)
	for i := 0; i < 10; i++ {
		buf := transport.GetBuf(len(enc))
		copy(buf, enc)
		q.deliver(transport.Message{From: 0, Data: buf}, true, &w.pump)
	}
	if got := w.PumpSnapshot().Delivered; got != 10 {
		t.Fatalf("delivered = %d, want 10", got)
	}
	w.endOp(tid, st)

	// A message racing endOp (op already gone) must be recycled too.
	late := transport.GetBuf(len(enc))
	copy(late, enc)
	q.deliver(transport.Message{From: 0, Data: late}, true, &w.pump)
	if got := w.PumpSnapshot().StaleDrops; got != 1 {
		t.Fatalf("stale drops = %d, want 1", got)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatalf("endOp leaked buffers: %v", obs.LeaksErr(leaks))
	}
}

// TestRecvPumpOverflowDoesNotStallOtherOps pins the head-of-line fix: in
// unreliable mode, a victim operation whose queue is full must not block
// the pump — its overflow is dropped and counted, and an unrelated
// collective sharing the worker must still complete.
func TestRecvPumpOverflowDoesNotStallOtherOps(t *testing.T) {
	cfg := Config{
		Workers:           1,
		Aggregators:       []int{1},
		Reliable:          false,
		OpQueueLen:        4,
		BlockSize:         16,
		RetransmitTimeout: 20 * time.Millisecond,
	}
	c := startCluster(t, cfg, 0, 1)
	w := c.workers[0]

	// A victim operation that never consumes its queue: register it
	// directly so no driver goroutine drains it.
	victim, victimSt, _, err := w.job.beginOp()
	if err != nil {
		t.Fatal(err)
	}
	defer w.endOp(victim, victimSt)

	// Blast results at the victim from an extra node until its 4-slot
	// queue overflows. With the old blocking pump this wedged recvPump
	// and every other collective on the worker forever.
	src := c.nw.AddNode(99)
	defer src.Close()
	enc := resultPacket(victim)
	deadline := time.Now().Add(5 * time.Second)
	for w.PumpSnapshot().OverflowDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim queue never overflowed")
		}
		if err := src.Send(0, enc); err != nil {
			t.Fatal(err)
		}
	}

	// The pump survived the overflow: a real collective still completes.
	inputs := randomInputs(256, cfg.Workers, 0.5, 42)
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	checkResult(t, inputs, want)
}

// TestReliableOverflowFailsOp verifies reliable-mode backpressure: a full
// queue fails that one operation with ErrOpBackpressure (dropping a
// reliable message would be an unrecoverable protocol violation, and
// blocking would stall every sibling collective).
func TestReliableOverflowFailsOp(t *testing.T) {
	nw := transport.NewNetwork(2, 64)
	w, err := NewWorker(nw.Conn(0), Config{
		Workers:     2,
		Aggregators: []int{5},
		Reliable:    true,
		OpQueueLen:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nw.AddNode(5) // aggregator inbox exists but nobody serves it

	tid, st, pcfg, err := w.job.beginOp()
	if err != nil {
		t.Fatal(err)
	}
	q := st.q
	defer w.endOp(tid, st)

	// Fill the queue past capacity straight through the pump's delivery
	// path, as a flood of results would.
	enc := resultPacket(tid)
	for i := 0; i < 3; i++ {
		buf := transport.GetBuf(len(enc))
		copy(buf, enc)
		q.deliver(transport.Message{From: 5, Data: buf}, true, &w.pump)
	}
	select {
	case <-q.fail:
	default:
		t.Fatal("reliable overflow did not trip the fail channel")
	}
	if got := w.PumpSnapshot().OverflowDrops; got != 1 {
		t.Fatalf("overflow drops = %d, want 1", got)
	}

	// A driver loop parked on this queue must surface ErrOpBackpressure.
	errCh := make(chan error, 1)
	go func() { errCh <- w.runAllReduce(make([]float32, 8), tid, st, pcfg, w.job.wid) }()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrOpBackpressure) {
			t.Fatalf("runAllReduce error = %v, want ErrOpBackpressure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runAllReduce did not observe the failed queue")
	}
}

// TestBadPacketsCountedAndRecycled checks that undecodable inbound
// messages are dropped with their buffers recycled and the drop counted.
func TestBadPacketsCountedAndRecycled(t *testing.T) {
	audit := obs.StartLeakAudit()
	nw := transport.NewNetwork(2, 16)
	w, err := NewWorker(nw.Conn(0), Config{Workers: 2, Aggregators: []int{5}, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	src := nw.Conn(1)
	if err := src.Send(0, []byte{0xff, 1, 2}); err != nil { // unknown type
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.PumpSnapshot().BadPackets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad packet never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatalf("bad packet leaked: %v", obs.LeaksErr(leaks))
	}
}

// TestAsyncCollectivesSurviveSlowSibling runs overlapping async
// collectives with a tiny queue in unreliable mode: retransmission-driven
// duplicate floods may overflow individual queues, but every operation
// must still converge to the right sums.
func TestAsyncCollectivesSurviveSlowSibling(t *testing.T) {
	cfg := Config{
		Workers:           2,
		Aggregators:       []int{2},
		Reliable:          false,
		OpQueueLen:        8,
		BlockSize:         32,
		RetransmitTimeout: 10 * time.Millisecond,
	}
	c := startCluster(t, cfg, 0.05, 7)
	const buckets = 4
	inputs := make([][][]float32, buckets)
	wants := make([][]float32, buckets)
	for b := range inputs {
		inputs[b] = randomInputs(512, cfg.Workers, 0.7, int64(100+b))
		wants[b] = expectedSum(inputs[b])
	}
	pendings := make([][]*Pending, buckets)
	for b := range inputs {
		pendings[b] = make([]*Pending, cfg.Workers)
		for i, w := range c.workers {
			p, err := w.AllReduceAsync(inputs[b][i])
			if err != nil {
				t.Fatal(err)
			}
			pendings[b][i] = p
		}
	}
	for b := range pendings {
		for i, p := range pendings[b] {
			if err := p.Wait(); err != nil {
				t.Fatalf("bucket %d worker %d: %v", b, i, err)
			}
		}
		checkResult(t, inputs[b], wants[b])
	}
}
