package protocol

import (
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// TestWorkerOpContract drives both worker machines through WorkerOp, the
// one interface the live worker and the simulator hand them over as, and
// holds them to one contract:
//
//   - a message of the other format, of the wrong direction, or empty is
//     refused with an error, no emits and unchanged stats;
//   - a result for another tensor is filtered: StaleResults+1, no emits;
//   - only a lossy block-format machine publishes a deadline; the others'
//     HandleTimeout and Rebind emit nothing and change nothing.
func TestWorkerOpContract(t *testing.T) {
	base := Config{Workers: 1, Aggregators: []int{aggNode}, Reliable: true,
		BlockSize: 4, FusionWidth: 1, Streams: 1}
	lossy := base
	lossy.Reliable = false
	dense := func(cfg Config) func(*testing.T, *EmitBuf) WorkerOp {
		return func(_ *testing.T, eb *EmitBuf) WorkerOp {
			m := NewWorkerMachine(cfg, 0, 1)
			m.Start(NewDenseView([]float32{1, 2, 3, 4, 5, 6, 7, 8}, cfg.BlockSize, false), 0, eb)
			return m
		}
	}
	kv := func(t *testing.T, eb *EmitBuf) WorkerOp {
		in := &tensor.COO{Dim: 100, Keys: []int32{3, 9, 40, 41, 77}, Values: []float32{1, 2, 3, 4, 5}}
		m, err := NewSparseWorkerMachine(base, 0, 1, in)
		if err != nil {
			t.Fatal(err)
		}
		m.Start(eb)
		return m
	}
	denseMsg := func(typ uint8, tid uint32) Msg {
		return Msg{Dense: &wire.Packet{Type: typ, TensorID: tid, BlockSize: 4, Nexts: []uint32{wire.Inf(0)}}}
	}
	kvMsg := func(typ uint8, tid uint32) Msg {
		return Msg{Sparse: &wire.SparsePacket{Type: typ, TensorID: tid, NextKey: wire.InfKey}}
	}
	cases := []struct {
		name     string
		start    func(*testing.T, *EmitBuf) WorkerOp
		refused  []Msg
		stale    Msg
		deadline bool
	}{
		{name: "dense", start: dense(base),
			refused: []Msg{kvMsg(wire.TypeSparseResult, 1), denseMsg(wire.TypeData, 1), {}},
			stale:   denseMsg(wire.TypeResult, 7)},
		{name: "dense_lossy", start: dense(lossy), deadline: true,
			refused: []Msg{kvMsg(wire.TypeSparseResult, 1), denseMsg(wire.TypeData, 1), {}},
			stale:   denseMsg(wire.TypeResult, 7)},
		{name: "kv", start: kv,
			refused: []Msg{denseMsg(wire.TypeResult, 1), kvMsg(wire.TypeSparseData, 1), {}},
			stale:   kvMsg(wire.TypeSparseResult, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var eb EmitBuf
			op := tc.start(t, &eb)
			if eb.Len() == 0 {
				t.Fatal("Start emitted nothing")
			}
			before := op.Stats()
			for _, msg := range tc.refused {
				eb.Reset()
				if err := op.HandleMsg(msg, 0, &eb); err == nil {
					t.Errorf("message of type %d accepted", msg.Type())
				}
				if eb.Len() != 0 || op.Stats() != before {
					t.Errorf("refused type %d: %d emits, stats %+v (were %+v)", msg.Type(), eb.Len(), op.Stats(), before)
				}
			}

			eb.Reset()
			if err := op.HandleMsg(tc.stale, 0, &eb); err != nil || eb.Len() != 0 {
				t.Errorf("foreign-tid result: err %v, %d emits; want filtered", err, eb.Len())
			}
			want := before
			want.StaleResults++
			if op.Stats() != want {
				t.Errorf("foreign-tid result: stats %+v, want %+v", op.Stats(), want)
			}
			if op.Done() {
				t.Error("Done after refused and stale messages only")
			}

			if _, ok := op.NextTimeout(); ok != tc.deadline {
				t.Fatalf("NextTimeout published = %v, want %v", ok, tc.deadline)
			}
			if tc.deadline {
				return
			}
			before = op.Stats()
			eb.Reset()
			if err := op.HandleTimeout(1<<40, &eb); err != nil || eb.Len() != 0 {
				t.Errorf("HandleTimeout: err %v, %d emits; want neither", err, eb.Len())
			}
			op.Rebind([]int{aggNode + 1}, 1<<40, &eb)
			if eb.Len() != 0 || op.Stats() != before {
				t.Errorf("HandleTimeout/Rebind: %d emits, stats %+v (were %+v)", eb.Len(), op.Stats(), before)
			}
		})
	}
}

// TestAggregatorRefusesResults: the aggregator machine reads worker data
// of either format and refuses anything else — a result of either format
// or an empty message — with an error, no emits and unchanged stats. The
// live driver decodes every data or result type alike, so this is the
// direction check.
func TestAggregatorRefusesResults(t *testing.T) {
	cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true, BlockSize: 4, FusionWidth: 1, Streams: 1}
	m := NewAggregatorMachine(cfg, aggNode)
	var eb EmitBuf
	for _, msg := range []Msg{
		{Dense: &wire.Packet{Type: wire.TypeResult, TensorID: 1, BlockSize: 4, Nexts: []uint32{0}}},
		{Sparse: &wire.SparsePacket{Type: wire.TypeSparseResult, TensorID: 1, NextKey: wire.InfKey}},
		{},
	} {
		eb.Reset()
		if err := m.HandlePacket(msg, &eb); err == nil {
			t.Errorf("type %d accepted", msg.Type())
		}
		if eb.Len() != 0 || m.Stats() != (AggStats{}) {
			t.Errorf("refused type %d: %d emits, stats %+v", msg.Type(), eb.Len(), m.Stats())
		}
	}
}
