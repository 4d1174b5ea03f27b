package protocol

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"omnireduce/internal/tensor"
)

// Every interleaving of Algorithm 3 at small scope. A reliable transport
// is one FIFO queue per connection and direction, with no loss,
// duplication or reordering inside a queue, so a schedule is the order in
// which the heads of those queues are delivered: walk with deliveries
// alone.

// newKVWorld is a harness running key-value collective 1 over ins and
// holding every state to the invariants of Algorithm 3 with fused
// packets. It returns the key-wise fold of every data packet delivered
// so far, in this schedule's order of arrival at the aggregator.
func newKVWorld(tb testing.TB, cfg Config, ins []*tensor.COO) (*harness, map[int32]float32) {
	h := newHarness(tb, cfg, len(ins))
	ref := map[int32]float32{}
	h.observe = func(f *frame, msg Msg) {
		if f.dst == aggNode {
			foldArrival(ref, msg.Sparse)
		}
	}
	h.check = func(end bool) error {
		refKeys := slices.Sorted(maps.Keys(ref))
		pairs := h.cfg.sparsePairs()
		if sa := h.ams[aggNode].sparse[1]; sa != nil {
			// Flushed prefix + unflushed suffix is the fold of what arrived.
			if !slices.Equal(sa.keys, refKeys) {
				return fmt.Errorf("aggregate keys %v, delivered keys %v", sa.keys, refKeys)
			}
			for i, k := range sa.keys {
				if !sameBits(sa.vals[i], ref[k]) {
					return fmt.Errorf("key %d: aggregate %v, arrival-order fold %v", k, sa.vals[i], ref[k])
				}
			}
			if suffix, bound := len(sa.keys)-sa.flushed, h.cfg.Workers*pairs; suffix > bound {
				return fmt.Errorf("unflushed suffix %d pairs, bound %d", suffix, bound)
			}
		}
		for id, m := range h.kv {
			if n := h.inFlight(id, aggNode); n > 1 {
				return fmt.Errorf("worker %d: %d data packets in flight, stop-and-wait allows 1", id, n)
			}
			// What a worker has assembled is final: nothing delivered since
			// the flush added or changed a key at or below it.
			out := m.Result()
			if out.Len() > len(refKeys) {
				return fmt.Errorf("worker %d assembled %d pairs of %d delivered", id, out.Len(), len(refKeys))
			}
			for i, k := range out.Keys {
				if k != refKeys[i] || !sameBits(out.Values[i], ref[refKeys[i]]) {
					return fmt.Errorf("worker %d pair %d: (%d, %v), fold has (%d, %v)", id, i, k, out.Values[i], refKeys[i], ref[refKeys[i]])
				}
			}
			// Nothing in flight: the schedule has ended, and must have ended
			// with the collective concluded everywhere.
			if !end {
				continue
			}
			if !m.Done() {
				return fmt.Errorf("schedule drained with worker %d not done (idx %d of %d)", id, m.idx, m.in.Len())
			}
			if out.Len() != len(ref) {
				return fmt.Errorf("worker %d holds %d pairs, the fold %d", id, out.Len(), len(ref))
			}
		}
		if end && h.ams[aggNode].ActiveSlots() != 0 {
			return errors.New("schedule drained with aggregation state still open")
		}
		return nil
	}
	h.beginKV(1, ins)
	return h, ref
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

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
// No schedule of these honest workers is refused by the aggregator (a move
// fails on any HandlePacket error), after every delivery the invariants of
// newKVWorld hold, and every schedule ends with all workers done on the
// same bits (each equals the fold).
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
					states, schedules := walk(func() *harness {
						h, _ := newKVWorld(t, cfg, ins)
						return h
					}, deliveries)
					t.Logf("input set %d: %d states, %.3g schedules", i, states, schedules)
				}
			})
		}
	}
}
