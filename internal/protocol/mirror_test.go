package protocol

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"omnireduce/internal/wire"
)

// Handoff tests for result mirroring: every successor here is a fresh
// machine that adopted the results its predecessor committed
// (harness.successor) and knows nothing else. Everything runs on the
// schedule harness.

// pumpLen is how many deliveries an undisturbed run of cfg over inputs
// takes.
func pumpLen(t *testing.T, cfg Config, inputs [][]float32) int {
	h, _ := newDense(t, cfg, inputs)
	return h.step(math.MaxInt)
}

// failoverSweep takes each aggregator of a versioned collective over
// inputs away after every delivery, twice — its successor level with the
// dead machine's last commit, and one frame behind it (the result went
// out, the mirror frame carrying it was lost) — and holds every run to the
// bit-exact sum. It returns how often the successors fast-forwarded, and
// how often of that out of round 0.
func failoverSweep(t *testing.T, cfg Config, inputs [][]float32, what string) (fastForwards, roundZero int64) {
	t.Helper()
	ref := refSum(inputs)
	total := pumpLen(t, cfg, inputs)
	for _, dead := range cfg.Aggregators {
		for k := 0; k <= total; k++ {
			at := fmt.Sprintf("%s: kill %d after %d of %d", what, dead, k, total)
			p, work := newDense(t, cfg, inputs)
			p.step(k)
			p.kill(dead, 300)
			if !p.converge(64) {
				t.Fatalf("%s: did not converge", at)
			}
			assertExact(t, at, work, ref)

			p, work = newDense(t, cfg, inputs)
			p.step(k)
			before := p.ams[dead].Stats().RoundsCompleted
			if !p.stepToCommit(dead) {
				continue // the step concluded no round: nothing went out
			}
			p.killBehind(dead, 300, 1)
			if !p.converge(64) {
				t.Fatalf("%s, a frame behind: did not converge", at)
			}
			assertExact(t, at+", a frame behind", work, ref)
			ff := p.ams[300].Stats().FastForwards
			fastForwards += ff
			if before == 0 {
				roundZero += ff
			}
		}
	}
	return fastForwards, roundZero
}

// TestMirrorFailoverExhaustive takes each aggregator of a versioned
// collective away after every delivery, twice — the standby level with the
// dead machine's last commit, and one frame behind it — under each
// accumulator, for two and three workers and bootstraps that are all,
// partly or not at all header-only. The sum is bit-exact every time.
func TestMirrorFailoverExhaustive(t *testing.T) {
	accums := []struct {
		name string
		set  func(*Config)
	}{
		{"float", func(*Config) {}},
		{"deterministic", func(c *Config) { c.DeterministicOrder = true }},
		{"quantized", func(c *Config) { c.QuantizeScale = 1 << 10 }},
	}
	firsts := bootFirsts(2)
	for _, workers := range []int{2, 3} {
		// No first-in-column block anywhere, one on one worker, all of them.
		for _, mask := range []uint{0, 1 << uint(len(firsts)+2), 1<<uint(workers*len(firsts)) - 1} {
			inputs := bootInputs(workers, firsts, mask)
			for _, ac := range accums {
				cfg := Config{BlockSize: bootBS, FusionWidth: bootCols, Streams: 2,
					Aggregators: []int{100, 200}, RetransmitTimeout: time.Millisecond}
				ac.set(&cfg)
				fastForwards, _ := failoverSweep(t, cfg, inputs, fmt.Sprintf("w%d mask %#x %s", workers, mask, ac.name))
				if fastForwards == 0 {
					t.Fatalf("w%d mask %#x %s: no successor ever fast-forwarded", workers, mask, ac.name)
				}
			}
		}
	}
}

// TestMirrorDoubleFailover kills an aggregator, lets its successor serve
// for a while and kills that too. The second standby was sent what both
// committed — the first machine's results while it lived, then the
// successor's — and every pair of kill points ends bit-exact.
func TestMirrorDoubleFailover(t *testing.T) {
	cfg := traceCfg(100, 200)
	inputs := traceInputs()
	ref := refSum(inputs)
	total := pumpLen(t, cfg, inputs)
	var second int64
	for k1 := 0; k1 <= total; k1++ {
		for k2 := 0; k2 <= total-k1; k2++ {
			what := fmt.Sprintf("kill 200 after %d, its successor after %d more", k1, k2)
			p, work := newDense(t, cfg, inputs)
			p.step(k1)
			p.kill(200, 300)
			p.step(k2)
			first := p.ams[300].Stats().RoundsCompleted
			p.kill(300, 400)
			if !p.converge(64) {
				t.Fatalf("%s: did not converge", what)
			}
			assertExact(t, what, work, ref)
			if first > 0 {
				second += p.ams[400].Stats().RoundsCompleted
			}
		}
	}
	if second == 0 {
		t.Fatal("no second successor ever completed a round after a first that had")
	}
}

// TestMirrorStandbyTwoBehind pins what happens beyond the one-round gap
// fast-forward covers: a successor two results behind on a slot cannot
// resync (the workers are two rounds past anything it can replay), and the
// collective ends in the workers' retransmission-exhausted error — as it
// did with a two-round-stale snapshot — never in a wrong block, a wrong
// fast-forward, or a silent hang.
func TestMirrorStandbyTwoBehind(t *testing.T) {
	cfg := Config{BlockSize: 4, FusionWidth: 4, Streams: 1, Aggregators: []int{100},
		DeterministicOrder: true, RetransmitTimeout: time.Millisecond, MaxRetries: 4}
	inputs := traceInputs()
	p, work := newDense(t, cfg, inputs)
	for p.ams[100].Stats().RoundsCompleted < 3 {
		p.step(1)
	}
	p.drainLosing(100) // the third result reaches every worker
	p.killBehind(100, 300, 2)
	p.drain()

	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = p.tick()
		p.drain()
	}
	if err == nil || !strings.Contains(err.Error(), "no response after 4 retransmissions") {
		t.Fatalf("collective behind a two-frame gap ended with %v, want the retransmission-exhausted error", err)
	}
	if p.allDone() {
		t.Fatal("workers finished behind a two-frame gap")
	}
	s := p.ams[300].Stats()
	if s.FastForwards != 0 || s.RoundsCompleted != 0 || s.StaleRounds == 0 {
		t.Fatalf("successor two frames behind: %+v, want only stale rounds", s)
	}
	assertNoWrongBlock(t, "two frames behind", work, inputs)
}

// assertNoWrongBlock fails t unless every element a worker holds is its
// input or the sum: a collective that stopped holds no wrong block.
func assertNoWrongBlock(t *testing.T, what string, work, inputs [][]float32) {
	t.Helper()
	ref := refSum(inputs)
	for w := range work {
		for i, v := range work[w] {
			if v != ref[i] && v != inputs[w][i] {
				t.Fatalf("%s: worker %d elem %d: %v is neither its input %v nor the sum %v", what, w, i, v, inputs[w][i], ref[i])
			}
		}
	}
}

// TestReliableFailoverBetweenCollectivesOnly writes down where reliable
// mode (Algorithm 1) can change aggregators. Between collectives a
// mirror-built successor is a full replacement: it serves the next tensor
// bit-exact and still knows which tensors are finished. Mid-collective it
// is not, even when the handover loses nothing in flight: Algorithm 1's
// silent workers never re-announce their next offsets and nobody resends a
// half-collected round, so a successor that knows only results stops
// short wherever the old machine was holding a contribution. (The
// full-machine snapshot this replaced carried that contribution and
// converged at every one of these points; no driver could use it —
// WorkerMachine.Rebind replays nothing in reliable mode and the simulator
// refuses a reliable failover — so the state is no longer shipped.) A
// stopped run never holds a wrong block.
func TestReliableFailoverBetweenCollectivesOnly(t *testing.T) {
	cfg := Config{BlockSize: 4, FusionWidth: 4, Streams: 2, Aggregators: []int{100},
		Reliable: true, DeterministicOrder: true}
	inputs := traceInputs()
	ref := refSum(inputs)
	total := pumpLen(t, cfg, inputs)

	// Between collectives.
	p, work := newDense(t, cfg, inputs)
	p.drain()
	if !p.allDone() {
		t.Fatal("first collective did not converge")
	}
	assertExact(t, "first collective", work, ref)
	straggler, err := wire.DecodePacket(p.mirror[0].buf)
	if err != nil {
		t.Fatal(err)
	}
	straggler.Type, straggler.WID = wire.TypeData, 0 // a late tensor-1 data packet
	sm := p.successor(100, 100, 0)
	p.ams[100] = sm
	p.inject(0, 100, wire.AppendPacket(nil, straggler))
	work = p.begin(2, inputs)
	p.drain()
	if !p.allDone() {
		t.Fatal("collective after the handover did not converge")
	}
	assertExact(t, "collective after the handover", work, ref)
	if s := sm.Stats(); sm.ActiveSlots() != 0 || s.Replays+s.StaleFinished == 0 {
		t.Fatalf("straggler of a finished tensor reopened it on the successor: %d live slots, %+v", sm.ActiveSlots(), s)
	}

	// Mid-collective, nothing lost in flight, from what reliable mode
	// mirrors (final results) and from every round's result: the non-final
	// results it does not send would not have helped a successor.
	var converged [2]int
	for every, name := range []string{"the mirror", "every round's result"} {
		for k := 0; k <= total; k++ {
			p, work := newDense(t, cfg, inputs)
			p.step(k)
			log := p.mirror
			if every == 1 {
				log = p.rounds
			}
			p.ams[100] = p.successorOf(log, 100, 100, 0)
			p.drain()
			what := fmt.Sprintf("handover after %d from %s", k, name)
			if p.allDone() {
				converged[every]++
				assertExact(t, what, work, ref)
				continue
			}
			if k == 0 || k == total {
				t.Fatalf("%s of %d (no collective in progress) did not converge", what, total)
			}
			assertNoWrongBlock(t, what, work, inputs)
		}
	}
	t.Logf("reliable-mode handover converged at %d of %d points", converged[0], total+1)
	if converged[0] != converged[1] {
		t.Fatalf("handover converged at %d points from the mirror, %d from every round's result", converged[0], converged[1])
	}
	if converged[0] == total+1 {
		t.Fatal("every mid-collective reliable handover converged: the limitation DESIGN §12 states is gone, update it")
	}
}

// TestCommitMarksResumableResults pins what Emit.Commit means — a result a
// successor can resume from — in each mode: in reliable mode one fan-out
// per (slot, tensor), the final result's; in versioned mode one per
// concluded round. A Commit emit is always a whole fan-out, and replays
// (of a live slot's last result or of an archived final) and sparse
// flushes never carry it.
func TestCommitMarksResumableResults(t *testing.T) {
	inputs := traceInputs()
	for _, reliable := range []bool{true, false} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			cfg := traceCfg(100)
			cfg.Reliable = reliable
			p, _ := newDense(t, cfg, inputs)
			am := p.ams[100]
			type pair struct {
				slot uint16
				tid  uint32
			}
			perPair := make(map[pair]int)
			var rounds, finals, commits int
			var sent []frame // every worker packet the aggregator was sent
			var tid uint32
			var toAgg bool
			before := am.Stats().RoundsCompleted
			p.observe = func(f *frame, _ Msg) {
				if toAgg = f.dst == 100; toAgg {
					sent = append(sent, frame{src: f.src, dst: f.dst, buf: slices.Clone(f.buf)})
					before = am.Stats().RoundsCompleted
				}
			}
			p.check = func(bool) error {
				emits := p.eb.Emits()
				marked := 0
				for i := range emits {
					if emits[i].Commit {
						marked++
					}
				}
				if !toAgg || am.Stats().RoundsCompleted == before {
					if marked != 0 {
						return fmt.Errorf("tensor %d: %d emits outside a round's fan-out carry Commit", tid, marked)
					}
					return nil
				}
				res := emits[0].Packet
				want := 0
				if !reliable || res.Done() {
					want = len(emits)
				}
				if len(emits) != len(inputs) || marked != want {
					return fmt.Errorf("tensor %d slot %d round %d (final %v): %d of %d emits carry Commit, want %d of %d",
						tid, res.Slot, res.Version, res.Done(), marked, len(emits), want, len(inputs))
				}
				rounds++
				if res.Done() {
					finals++
				}
				if want > 0 {
					commits++
					perPair[pair{res.Slot, res.TensorID}]++
				}
				return nil
			}
			for tid = 1; tid <= 3; tid++ {
				if tid > 1 {
					p.begin(tid, inputs)
				}
				for n := 1; !p.allDone(); n++ {
					if !reliable && n%7 == 0 {
						if err := p.tick(); err != nil { // the workers retransmit: stale rounds draw replays
							t.Fatal(err)
						}
					}
					if p.step(1) == 0 {
						t.Fatalf("tensor %d stalled", tid)
					}
				}
				if !reliable && tid == 1 && am.Stats().Replays == 0 {
					t.Fatal("retransmissions drew no replay of a live slot")
				}
			}
			want := rounds
			if reliable {
				want = finals
			}
			if commits != want || len(perPair) != finals || finals == 0 || rounds <= finals {
				t.Fatalf("%d Commit fan-outs over %d (slot, tensor) pairs, want %d over %d (%d rounds)",
					commits, len(perPair), want, finals, rounds)
			}
			for k, n := range perPair {
				if reliable && n != 1 {
					t.Fatalf("slot %d tensor %d: %d Commit fan-outs, want one", k.slot, k.tid, n)
				}
			}

			// Every packet again, after the fact: archive replays only.
			p.observe, p.check = nil, nil
			replays := am.Stats().Replays
			for i, m := range sent {
				emits, err := p.handle(m)
				if err != nil {
					t.Fatal(err)
				}
				if Committed(emits) != nil {
					t.Fatalf("straggler %d of %d drew a Commit emit", i, len(sent))
				}
			}
			if am.Stats().Replays == replays {
				t.Fatal("stragglers drew no archive replay")
			}
		})
	}

	t.Run("sparse", func(t *testing.T) {
		cfg := Config{Workers: 2, Aggregators: []int{aggNode}, Reliable: true, BlockSize: 2, FusionWidth: 2}.WithDefaults()
		am := NewAggregatorMachine(cfg, aggNode)
		var eb EmitBuf
		flushes := 0
		for _, sp := range sparseMergeTrace(t, cfg, 200, 20) {
			eb.Reset()
			if err := am.HandlePacket(Msg{Sparse: sp}, &eb); err != nil {
				t.Fatal(err)
			}
			flushes += eb.Len()
			if Committed(eb.Emits()) != nil {
				t.Fatal("a sparse flush carried Commit")
			}
		}
		if flushes == 0 {
			t.Fatal("the sparse trace flushed nothing")
		}
	})
}

// TestReliableFinalsOnlySuccessor: between collectives, a reliable-mode
// successor built from the mirror (final results only) is the successor
// built from every round's result. At every point between the collectives
// of a run longer than the archive is deep, the two hold the same results,
// the same archive bit for bit and the same finished sets, and each serves
// the next collective bit-exact.
func TestReliableFinalsOnlySuccessor(t *testing.T) {
	cfg := Config{BlockSize: 4, FusionWidth: 4, Streams: 2, Aggregators: []int{100},
		Reliable: true, DeterministicOrder: true}
	inputs := traceInputs()
	ref := refSum(inputs)
	const collectives = ArchiveDepth + 2
	p, work := newDense(t, cfg, inputs)
	for tid := uint32(1); ; tid++ {
		p.drain()
		if !p.allDone() {
			t.Fatalf("collective %d did not converge", tid)
		}
		assertExact(t, fmt.Sprintf("collective %d", tid), work, ref)
		finals := p.successor(100, 100, 0)
		every := p.successorOf(p.rounds, 100, 100, 0)
		if len(p.mirror) >= len(p.rounds) {
			t.Fatalf("after %d: the mirror holds %d results of %d rounds", tid, len(p.mirror), len(p.rounds))
		}
		if got, want := finals.Held(), every.Held(); got != want {
			t.Fatalf("after %d: successor from the mirror holds %d results, from every round %d", tid, got, want)
		}
		if got, want := finals.ActiveSlots(), every.ActiveSlots(); got != 0 || want != 0 {
			t.Fatalf("after %d: live slots %d and %d between collectives", tid, got, want)
		}
		if got, want := archiveBytes(finals), archiveBytes(every); !bytes.Equal(got, want) {
			t.Fatalf("after %d: the two successors' archives differ", tid)
		}
		if !reflect.DeepEqual(finals.finished, every.finished) {
			t.Fatalf("after %d: finished sets differ: %v and %v", tid, finals.finished, every.finished)
		}
		for _, sm := range []*AggregatorMachine{finals, every} {
			q := newHarness(t, cfg, len(inputs))
			q.ams[100] = sm
			next := q.begin(tid+1, inputs)
			q.drain()
			if !q.allDone() {
				t.Fatalf("after %d: the successor did not serve collective %d", tid, tid+1)
			}
			assertExact(t, fmt.Sprintf("collective %d on a successor", tid+1), next, ref)
		}
		if tid == collectives {
			return
		}
		work = p.begin(tid+1, inputs)
	}
}

// archiveBytes is m's replay archive encoded, slot by slot in order.
func archiveBytes(m *AggregatorMachine) []byte {
	var out []byte
	for slot, bucket := range m.archive {
		for _, ar := range bucket {
			out = append(out, byte(slot), byte(slot>>8))
			out = wire.AppendPacket(out, &ar.pkt)
		}
	}
	return out
}
