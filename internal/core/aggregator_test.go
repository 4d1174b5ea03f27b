package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tenant"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Driver-level aggregator tests: protocol error surfacing through a
// shard's message handler and lifecycle behavior. The aggregation internals
// (accumulator modes, archive, finished tracking, machine traces) are
// tested in internal/protocol.

// shardStep is the decode-and-step half of a shard's loop: handleMsg on
// one machine set, without the transmit.
type shardStep struct {
	ms  machineSet
	dec decodeState
	eb  protocol.EmitBuf
}

func newShardStep(cfg Config) *shardStep {
	cfg = cfg.withDefaults()
	reg := tenant.NewRegistry(tenant.Config{}, obs.Default, cfg.Workers)
	return &shardStep{ms: newMachineSet(cfg.Protocol(), cfg.Aggregators[0], reg)}
}

func (s *shardStep) handle(from int, data []byte) error {
	return handleMsg(&s.ms, &s.dec, &s.eb, transport.Message{From: from, Data: data}, 0)
}

func TestAggregatorRejectsUnknownWorker(t *testing.T) {
	s := newShardStep(Config{Workers: 1, Aggregators: []int{1}, Reliable: true})
	p := &wire.Packet{
		Type: wire.TypeData, WID: 9, TensorID: 1, BlockSize: 4,
		Nexts: []uint32{wire.Inf(0)},
	}
	err := s.handle(9, wire.AppendPacket(nil, p))
	if err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregatorRejectsGeometryChange(t *testing.T) {
	s := newShardStep(Config{Workers: 2, Aggregators: []int{2}, Reliable: true})
	first := &wire.Packet{
		Type: wire.TypeData, WID: 0, TensorID: 1, BlockSize: 4,
		Nexts:  []uint32{wire.Inf(0), wire.Inf(1)},
		Blocks: []wire.Block{{Index: 0, Data: []float32{1, 2, 3, 4}}},
	}
	if err := s.handle(0, wire.AppendPacket(nil, first)); err != nil {
		t.Fatal(err)
	}
	// Same tensor, different fusion width from the other worker.
	bad := &wire.Packet{
		Type: wire.TypeData, WID: 1, TensorID: 1, BlockSize: 4,
		Nexts: []uint32{wire.Inf(0)},
	}
	err := s.handle(1, wire.AppendPacket(nil, bad))
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregatorRejectsWrongBlockIndex(t *testing.T) {
	s := newShardStep(Config{Workers: 2, Aggregators: []int{2}, Reliable: true})
	mk := func(wid uint16, idx uint32) []byte {
		return wire.AppendPacket(nil, &wire.Packet{
			Type: wire.TypeData, WID: wid, TensorID: 1, BlockSize: 2,
			Nexts:  []uint32{4},
			Blocks: []wire.Block{{Index: idx, Data: []float32{1, 2}}},
		})
	}
	if err := s.handle(0, mk(0, 0)); err != nil {
		t.Fatal(err)
	}
	// Worker 1 claims a different block for the same column position.
	if err := s.handle(1, mk(1, 3)); err == nil {
		t.Fatal("expected block index mismatch error")
	}
}

func TestAggregatorRejectsGarbage(t *testing.T) {
	s := newShardStep(Config{Workers: 1, Aggregators: []int{1}, Reliable: true})
	if err := s.handle(0, []byte{99, 1, 2}); err == nil {
		t.Fatal("expected error for unknown message type")
	}
	if err := s.handle(0, []byte{wire.TypeData, 0}); err == nil {
		t.Fatal("expected decode error for truncated packet")
	}
}

func TestHierarchicalAllReduce(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true}
	c := startCluster(t, cfg, 0, 31)
	const devices, n = 4, 3_000
	locals := make([][][]float32, 2) // [node][device][elem]
	want := make([]float32, n)
	inputs := randomInputs(n, 2*devices, 0.6, 17)
	for node := 0; node < 2; node++ {
		locals[node] = make([][]float32, devices)
		for d := 0; d < devices; d++ {
			locals[node][d] = inputs[node*devices+d]
			for i, v := range locals[node][d] {
				want[i] += v
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			errs[node] = c.workers[node].HierarchicalAllReduce(locals[node])
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	for node := 0; node < 2; node++ {
		for d := 0; d < devices; d++ {
			for i := range want {
				diff := float64(locals[node][d][i]) - float64(want[i])
				if diff > 1e-3 || diff < -1e-3 {
					t.Fatalf("node %d dev %d elem %d: %v vs %v", node, d, i, locals[node][d][i], want[i])
				}
			}
		}
	}
}

func TestHierarchicalAllReduceValidation(t *testing.T) {
	cfg := Config{Workers: 1, Reliable: true}
	c := startCluster(t, cfg, 0, 32)
	if err := c.workers[0].HierarchicalAllReduce(nil); err != nil {
		t.Fatalf("empty locals: %v", err)
	}
	err := c.workers[0].HierarchicalAllReduce([][]float32{{1, 2}, {1}})
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestAggregatorRunStopsOnClose(t *testing.T) {
	nw := transport.NewNetwork(1, 4)
	conn := nw.AddNode(1)
	a, err := NewAggregator(conn, Config{Workers: 1, Aggregators: []int{1}, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	time.Sleep(5 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on orderly close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop")
	}
}
