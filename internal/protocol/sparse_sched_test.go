package protocol

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// Every interleaving of Algorithm 3 at small scope. A reliable transport
// is one FIFO queue per connection and direction, with no loss,
// duplication or reordering inside a queue, so a schedule is the order in
// which the heads of those queues are delivered. kvWorld is one state of
// such a cluster; explore walks every state reachable by delivering any
// non-empty queue's head, visiting each distinct state once.

type kvWorld struct {
	cfg  Config
	am   *AggregatorMachine
	wms  []*SparseWorkerMachine
	up   [][]*wire.SparsePacket // worker w -> aggregator
	down [][]*wire.SparsePacket // aggregator -> worker w
	// ref is the key-wise fold of every data packet delivered so far, in
	// this schedule's order of arrival at the aggregator.
	ref map[int32]float32
}

func newKVWorld(t *testing.T, cfg Config, ins []*tensor.COO) *kvWorld {
	t.Helper()
	w := &kvWorld{cfg: cfg, am: NewAggregatorMachine(cfg, aggNode), ref: map[int32]float32{},
		up: make([][]*wire.SparsePacket, len(ins)), down: make([][]*wire.SparsePacket, len(ins))}
	var eb EmitBuf
	for id, in := range ins {
		m, err := NewSparseWorkerMachine(cfg, id, 1, in)
		if err != nil {
			t.Fatal(err)
		}
		w.wms = append(w.wms, m)
		eb.Reset()
		m.Start(&eb)
		w.route(id, eb.Emits())
	}
	return w
}

// route queues a machine call's emits: a worker's on its own connection,
// the aggregator's on each destination's.
func (w *kvWorld) route(src int, emits []Emit) {
	for i := range emits {
		p := testCloneSparse(emits[i].Sparse)
		if dst := emits[i].Dst; dst == aggNode {
			w.up[src] = append(w.up[src], p)
		} else {
			w.down[dst] = append(w.down[dst], p)
		}
	}
}

func (w *kvWorld) clone() *kvWorld {
	c := &kvWorld{cfg: w.cfg, ref: maps.Clone(w.ref)}
	c.am = NewAggregatorMachine(w.am.cfg, w.am.localID)
	for tid, sa := range w.am.sparse {
		d := *sa
		d.keys, d.vals, d.nextKey = slices.Clone(sa.keys), slices.Clone(sa.vals), slices.Clone(sa.nextKey)
		d.mergeK, d.mergeV, d.shells = nil, nil, nil
		c.am.sparse[tid] = &d
	}
	for _, m := range w.wms {
		d := *m
		d.out = *m.out.Clone()
		d.shells = [2]wire.SparsePacket{}
		c.wms = append(c.wms, &d)
	}
	// Queued packets are never written again, so the copies share them.
	for i := range w.up {
		c.up = append(c.up, slices.Clone(w.up[i]))
		c.down = append(c.down, slices.Clone(w.down[i]))
	}
	return c
}

// enabled lists the deliveries possible now: q < workers is the head of
// up[q], otherwise the head of down[q-workers].
func (w *kvWorld) enabled() []int {
	var qs []int
	for i := range w.up {
		if len(w.up[i]) > 0 {
			qs = append(qs, i)
		}
	}
	for i := range w.down {
		if len(w.down[i]) > 0 {
			qs = append(qs, len(w.up)+i)
		}
	}
	return qs
}

func (w *kvWorld) deliver(t *testing.T, q int) {
	t.Helper()
	var eb EmitBuf
	if q < len(w.up) {
		p := w.up[q][0]
		w.up[q] = w.up[q][1:]
		for i, k := range p.Keys {
			w.ref[k] += p.Values[i]
		}
		// Delivered as a live driver delivers it: a view of the packet's
		// encoding, poisoned once HandlePacket returns.
		buf := wire.AppendSparsePacket(nil, p)
		var view wire.SparsePacket
		if _, _, err := wire.DecodeSparsePacketView(&view, nil, nil, buf); err != nil {
			t.Fatalf("decode: %v", err)
		}
		err := w.am.HandlePacket(Msg{Sparse: &view}, &eb)
		poison(buf)
		if err != nil {
			t.Fatalf("the aggregator refused an honest worker's packet: %v", err)
		}
		w.route(aggNode, eb.Emits())
		return
	}
	id := q - len(w.up)
	p := w.down[id][0]
	w.down[id] = w.down[id][1:]
	if err := w.wms[id].HandlePacket(p, &eb); err != nil {
		t.Fatalf("worker %d: %v", id, err)
	}
	w.route(id, eb.Emits())
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// check holds the state to the invariants of Algorithm 3 with fused packets.
func (w *kvWorld) check(t *testing.T) {
	t.Helper()
	refKeys := slices.Sorted(maps.Keys(w.ref))
	pairs := w.cfg.sparsePairs()
	if sa := w.am.sparse[1]; sa != nil {
		// Flushed prefix + unflushed suffix is the fold of what arrived.
		if !slices.Equal(sa.keys, refKeys) {
			t.Fatalf("aggregate keys %v, delivered keys %v", sa.keys, refKeys)
		}
		for i, k := range sa.keys {
			if !sameBits(sa.vals[i], w.ref[k]) {
				t.Fatalf("key %d: aggregate %v, arrival-order fold %v", k, sa.vals[i], w.ref[k])
			}
		}
		if suffix, bound := len(sa.keys)-sa.flushed, w.cfg.Workers*pairs; suffix > bound {
			t.Fatalf("unflushed suffix %d pairs, bound %d", suffix, bound)
		}
	}
	for id, m := range w.wms {
		if len(w.up[id]) > 1 {
			t.Fatalf("worker %d: %d data packets in flight, stop-and-wait allows 1", id, len(w.up[id]))
		}
		// What a worker has assembled is final: nothing delivered since
		// the flush added or changed a key at or below it.
		out := m.Result()
		if out.Len() > len(refKeys) {
			t.Fatalf("worker %d assembled %d pairs of %d delivered", id, out.Len(), len(refKeys))
		}
		for i, k := range out.Keys {
			if k != refKeys[i] || !sameBits(out.Values[i], w.ref[refKeys[i]]) {
				t.Fatalf("worker %d pair %d: (%d, %v), fold has (%d, %v)", id, i, k, out.Values[i], refKeys[i], w.ref[refKeys[i]])
			}
		}
	}
}

// fingerprint identifies the state for explore: two schedules that reach
// the same one have the same continuations.
func (w *kvWorld) fingerprint() string {
	var b []byte
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	i32 := func(vs []int32) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	pkts := func(q []*wire.SparsePacket) {
		u32(uint32(len(q)))
		for _, p := range q {
			u32(p.NextKey, uint32(len(p.Keys)))
			i32(p.Keys)
			for _, v := range p.Values {
				u32(math.Float32bits(v))
			}
		}
	}
	if sa := w.am.sparse[1]; sa != nil {
		u32(1, uint32(sa.flushed), uint32(sa.sent), uint32(len(sa.keys)))
		i32(sa.keys)
		for _, v := range sa.vals {
			u32(math.Float32bits(v))
		}
		for _, n := range sa.nextKey {
			b = binary.LittleEndian.AppendUint64(b, uint64(n))
		}
	} else {
		u32(0)
	}
	for i, m := range w.wms {
		done := uint32(0)
		if m.done {
			done = 1
		}
		u32(uint32(m.idx), done, uint32(m.out.Len()))
		for j, k := range m.out.Keys {
			u32(uint32(k), math.Float32bits(m.out.Values[j]))
		}
		pkts(w.up[i])
		pkts(w.down[i])
	}
	return string(b)
}

// explore visits every state reachable from w and returns how many
// complete schedules pass through it. seen holds that count per state.
func explore(t *testing.T, w *kvWorld, seen map[string]float64) float64 {
	t.Helper()
	w.check(t)
	fp := w.fingerprint()
	if n, ok := seen[fp]; ok {
		return n
	}
	qs := w.enabled()
	if len(qs) == 0 {
		// Nothing in flight: the schedule has ended, and must have ended
		// with the collective concluded everywhere.
		for id, m := range w.wms {
			if !m.Done() {
				t.Fatalf("schedule drained with worker %d not done (idx %d of %d)", id, m.idx, m.in.Len())
			}
			if m.Result().Len() != len(w.ref) {
				t.Fatalf("worker %d holds %d pairs, the fold %d", id, m.Result().Len(), len(w.ref))
			}
		}
		if w.am.ActiveSlots() != 0 {
			t.Fatal("schedule drained with aggregation state still open")
		}
		seen[fp] = 1
		return 1
	}
	var n float64
	for _, q := range qs {
		c := w.clone()
		c.deliver(t, q)
		n += explore(t, c, seen)
	}
	seen[fp] = n
	return n
}

// schedInputs builds one small input set: counts[w] pairs for worker w,
// keys drawn without replacement from a range narrow enough that workers
// collide often, values of mixed magnitude so that the order in which
// three contributions fold shows in the bits.
func schedInputs(rng *rand.Rand, counts []int) []*tensor.COO {
	total := 0
	for _, n := range counts {
		total += n
	}
	dim := max(8, 3*total/2)
	ins := make([]*tensor.COO, len(counts))
	for w, n := range counts {
		keys := rng.Perm(dim)[:n]
		slices.Sort(keys)
		ins[w] = tensor.NewCOO(dim)
		for _, k := range keys {
			v := float32(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				v *= 1e8
			}
			ins[w].Append(int32(k), v)
		}
	}
	return ins
}

// TestSparseScheduleExhaustive: 2 and 3 workers x FusionWidth 1-2, up to 6
// packets per worker, every interleaving of the per-connection queues.
// No schedule of these honest workers is refused by the aggregator (deliver
// fails on any HandlePacket error), after every delivery check holds, and
// every schedule ends with all workers done on the same bits (each equals
// the fold).
func TestSparseScheduleExhaustive(t *testing.T) {
	const blockSize = 2
	coo := func(dim int, keys ...int32) *tensor.COO {
		c := tensor.NewCOO(dim)
		for _, k := range keys {
			c.Append(k, float32(k)+0.5)
		}
		return c
	}
	for _, workers := range []int{2, 3} {
		for fusion := 1; fusion <= 2; fusion++ {
			t.Run(fmt.Sprintf("workers=%d_fusion=%d", workers, fusion), func(t *testing.T) {
				cfg := Config{Workers: workers, Aggregators: []int{aggNode}, Reliable: true,
					BlockSize: blockSize, FusionWidth: fusion}.WithDefaults()
				pairs := cfg.sparsePairs()
				rng := rand.New(rand.NewSource(int64(100*workers + fusion)))
				// Packets per worker: a long and a shorter stream for two
				// workers; three workers get fewer, the state space being
				// a product over workers. The -1 leaves a short last packet.
				packets := []int{6, 4}
				if workers == 3 {
					packets = []int{5, 3, 2}
				}
				counts := make([]int, workers)
				for w := range counts {
					counts[w] = packets[w]*pairs - 1
				}
				sets := [][]*tensor.COO{schedInputs(rng, counts)}
				if workers == 2 {
					sets = append(sets,
						// disjoint ranges, the upper worker waits on the lower's whole stream
						[]*tensor.COO{coo(64, 0, 1, 2, 3, 4, 5, 6, 7, 8), coo(64, 20, 21, 22, 23, 24, 25, 26, 27, 28)},
						// identical keys, an empty worker, less than a packet
						[]*tensor.COO{coo(64, 1, 3, 5, 7, 9, 11, 13), coo(64, 1, 3, 5, 7, 9, 11, 13)},
						[]*tensor.COO{coo(64, 2, 4, 6, 8, 10, 12), coo(64)},
						[]*tensor.COO{coo(64, 5), coo(64, 5)},
					)
				}
				for i, ins := range sets {
					seen := map[string]float64{}
					schedules := explore(t, newKVWorld(t, cfg, ins), seen)
					t.Logf("input set %d: %d states, %.3g schedules", i, len(seen), schedules)
				}
			})
		}
	}
}
