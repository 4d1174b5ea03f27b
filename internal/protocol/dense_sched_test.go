package protocol

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// Algorithm 2 under every schedule at small scope: versioned mode, two
// workers, one aggregator, one stream of at most four blocks. The links
// may drop and duplicate frames, and a worker's armed timer may fire at
// any point, racing its own frames in flight, within a budget per
// schedule.

// maxRoundLag is the reordering bound of Algorithm 2 over FIFO links: a
// data frame reaches the aggregator at most this many rounds behind the
// round the aggregator is collecting, and never ahead of it (save after a
// failover, when a successor a result behind sees its workers one round
// ahead and fast-forwards). A worker sends round r+1 only after round r's
// result, which the aggregator concludes only once every worker's round-r
// frame has arrived, and whatever the worker sent before that frame
// arrived before it. The mod-256 Version therefore tells every round a
// frame can belong to from the live one and from the one after it while
// maxRoundLag + 2 <= 256: no accepted version aliases a live round.
const maxRoundLag = 1

// The budget of one schedule: at most denseFaults faults, of which at
// most one drop, one duplicate and one timer firing (whatever is in
// flight), and at most denseDepth moves. No schedule within
// the fault budget at this scope is that long (the deepest has 22 moves);
// the bound is what ends one that livelocks. Where a schedule ends, it
// must then finish without faults, delivering in order and firing every
// timer whenever nothing is in flight (converge), within denseTicks timer
// rounds: with finitely many drops every collective terminates.
const (
	denseFaults = 2
	denseDepth  = 32
	denseTicks  = 8
)

// denseSchedCfg is the scope's configuration at one fusion width.
func denseSchedCfg(fusion int) Config {
	return Config{BlockSize: 2, FusionWidth: fusion, Streams: 1,
		RetransmitTimeout: time.Millisecond, RetransmitBackoff: 1, RetransmitJitter: -1}
}

// denseSchedInputs are the input sets: both workers dense; disjoint
// blocks; one worker all zeros; and a short last block. Magnitudes mix so
// that a block summed twice, or half-summed, shows in the bits.
func denseSchedInputs() [][][]float32 {
	mk := func(n int, blocks ...int) []float32 {
		d := make([]float32, n)
		for _, b := range blocks {
			for i := 2 * b; i < min(2*b+2, n); i++ {
				d[i] = float32(i+1) * 0.75
				if (b+i)%3 == 0 {
					d[i] *= 1e7
				}
			}
		}
		return d
	}
	neg := func(d []float32) []float32 {
		for i := range d {
			d[i] = -d[i] / 3
		}
		return d
	}
	return [][][]float32{
		{mk(8, 0, 1, 2, 3), neg(mk(8, 0, 1, 2, 3))},
		{mk(8, 0, 2), neg(mk(8, 1, 3))},
		{mk(8), neg(mk(8, 0, 3))},
		{mk(7, 0, 1, 3), neg(mk(7, 1, 2, 3))},
	}
}

// scanned is inputs as each worker's scan leaves them (NewDenseView):
// every block zero on that worker +0.0.
func scanned(inputs [][]float32, bs int) [][]float32 {
	out := make([][]float32, len(inputs))
	for w, in := range inputs {
		out[w] = slices.Clone(in)
		for lo := 0; lo < len(in); lo += bs {
			if blk := out[w][lo:min(lo+bs, len(in))]; allZero(blk) {
				clear(blk)
			}
		}
	}
	return out
}

// newDenseWorld is a harness running collective 1 over inputs and holding
// every state to Algorithm 2's invariants:
//
//   - every data frame reaches the aggregator within maxRoundLag rounds
//     behind the one it collects; the aggregator merges it only if it is
//     of that round, and refuses it as stale only if it is not;
//   - every element a worker holds is its input as its scan left it
//     (scanned) or refSum, bit for bit, and a Done worker holds refSum;
//   - every schedule finishes, every worker Done (see denseTicks).
func newDenseWorld(tb testing.TB, cfg Config, inputs [][]float32) *harness {
	h := newHarness(tb, cfg, len(inputs))
	want, start := refSum(inputs), scanned(inputs, cfg.BlockSize)
	// A data frame's round is its Version: at this scope no round count
	// reaches 256.
	var (
		src, round       = -1, int64(0)
		live, stale, dup int64
	)
	h.observe = func(f *frame, msg Msg) {
		if f.dst != aggNode {
			return
		}
		s := h.ams[aggNode].Stats()
		src, round = f.src, int64(msg.Dense.Version)
		live, stale, dup = s.RoundsCompleted, s.StaleRounds+s.Replays+s.StaleFinished, s.DupsFiltered
	}
	holds := func() error {
		if src >= 0 {
			s := h.ams[aggNode].Stats()
			refused := s.StaleRounds+s.Replays+s.StaleFinished != stale || s.DupsFiltered != dup
			switch lag := live - round; {
			case lag < 0 || lag > maxRoundLag:
				return fmt.Errorf("worker %d's round-%d frame reached the aggregator collecting round %d", src, round, live)
			case !refused && lag != 0:
				return fmt.Errorf("the aggregator collecting round %d merged worker %d's round-%d frame: its version aliases", live, src, round)
			case s.StaleRounds+s.Replays+s.StaleFinished != stale && lag == 0:
				return fmt.Errorf("the aggregator collecting round %d refused worker %d's frame of that round as stale", live, src)
			}
			src = -1
		}
		for w, work := range h.work {
			for i, v := range work {
				if sameBits(v, want[i]) {
					continue
				}
				if h.ops[w].Done() || !sameBits(v, start[w][i]) {
					return fmt.Errorf("worker %d (done %v) elem %d: %v is neither its input %v nor the sum %v",
						w, h.ops[w].Done(), i, v, start[w][i], want[i])
				}
			}
		}
		return nil
	}
	h.check = func(end bool) error {
		if err := holds(); err != nil || !end {
			return err
		}
		if !h.converge(denseTicks) {
			return fmt.Errorf("not done after %d timer rounds", denseTicks)
		}
		return nil
	}
	h.begin(1, inputs)
	return h
}

// denseMoves are every move within the budget: deliver any link's head,
// drop or duplicate it, and fire an armed timer.
func denseMoves(h *harness, depth int) []string {
	if depth >= denseDepth {
		return nil
	}
	fault := h.drops+h.dups+h.timeouts < denseFaults
	ops := []string{"deliver"}
	if fault && h.drops == 0 {
		ops = append(ops, "drop")
	}
	if fault && h.dups == 0 {
		ops = append(ops, "dup")
	}
	ms := onHeads(h, -1, ops...)
	for w, op := range h.ops {
		if _, ok := op.NextTimeout(); ok && fault && h.timeouts == 0 {
			ms = append(ms, fmt.Sprintf("timeout %d", w))
		}
	}
	return ms
}

// denseSeeds are schedules the walk printed, replayed and then finished
// before the walk, each with its fusion width and input set.
var denseSeeds = []struct {
	fusion, set int
	sched       string
}{
	// Blocks 1 and 2 are zero on both workers and -0 on worker 1, so they
	// are never sent: worker 1 ended them with -0, where refSum and worker
	// 0 have +0, until its scan cleared them (ComputeBitmapNormalized).
	{1, 2, "deliver 0>100, deliver 1>100, deliver 100>0, deliver 0>100, deliver 100>1, deliver 1>100, deliver 100>0, deliver 100>1"},
	// A duplicated result reaching worker 1 after it has moved to the next
	// round (prefixes of the schedules on which the walk failed once the
	// worker's version check was removed, and once the aggregator's
	// seen-set was).
	{2, 0, "deliver 0>100, deliver 1>100, deliver 100>0, deliver 0>100, dup 100>1, deliver 100>1, deliver 1>100, deliver 100>0, deliver 100>1"},
	// Worker 1's frame lost and worker 0's timer firing first: its
	// retransmission duplicates a frame already merged.
	{2, 0, "deliver 0>100, deliver 1>100, deliver 100>0, deliver 0>100, deliver 100>1, drop 1>100, timeout 0, deliver 0>100"},
}

// TestDenseScheduleExhaustive: Algorithm 2 at FusionWidth 1 and 2 on each
// input set, under every schedule of deliveries, drops, duplicates and
// timeouts within the budget, holds newDenseWorld's invariants after every
// move, and every schedule finishes on every worker bit-exact.
func TestDenseScheduleExhaustive(t *testing.T) {
	sets := denseSchedInputs()
	for _, sd := range denseSeeds {
		walk(func() *harness { return newDenseWorld(t, denseSchedCfg(sd.fusion), sets[sd.set]) }, replayer(sd.sched))
	}
	for fusion := 1; fusion <= 2; fusion++ {
		t.Run(fmt.Sprintf("fusion=%d", fusion), func(t *testing.T) {
			for i, inputs := range sets {
				states, schedules := walk(func() *harness {
					return newDenseWorld(t, denseSchedCfg(fusion), inputs)
				}, denseMoves)
				t.Logf("input set %d: %d states, %.3g schedules", i, states, schedules)
			}
		})
	}
}
