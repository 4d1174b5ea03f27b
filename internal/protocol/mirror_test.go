package protocol

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"omnireduce/internal/wire"
)

// Handoff tests for result mirroring: every successor here is a fresh
// machine that adopted the results its predecessor committed
// (multiPump.successor) and knows nothing else. Everything runs on the
// synchronous multi-aggregator pump of view_test.go.

// converge runs the pump until every worker is done, firing retransmission
// timers whenever the queue runs dry, and reports whether it got there.
func (p *multiPump) converge() bool {
	p.step(1 << 20)
	for i := 0; i < 64 && !p.allDone(); i++ {
		p.tick()
		p.step(1 << 20)
	}
	return p.allDone()
}

func assertExact(t *testing.T, what string, work [][]float32, ref []float32) {
	t.Helper()
	for w := range work {
		for i, v := range work[w] {
			if v != ref[i] {
				t.Fatalf("%s: worker %d elem %d: %v != %v", what, w, i, v, ref[i])
			}
		}
	}
}

// pumpLen is how many deliveries an undisturbed run of cfg over inputs
// takes.
func pumpLen(t *testing.T, cfg Config, inputs [][]float32) int {
	p, _ := newMultiPump(t, cfg, inputs)
	n := 0
	for len(p.q) > 0 {
		p.step(1)
		n++
	}
	return n
}

// stepToCommit delivers the next message, which must be for dead, and
// reports whether dead concluded a round on it. If so it then delivers
// that round's results (and whatever else is not bound for dead), so every
// worker holds the result the lost mirror frame carried: the situation a
// standby on a lossy link is in, and the only one fast-forward covers.
func (p *multiPump) stepToCommit(dead int) bool {
	if len(p.q) == 0 || p.q[0].dst != dead {
		return false
	}
	before := p.ams[dead].Stats().RoundsCompleted
	p.step(1)
	if p.ams[dead].Stats().RoundsCompleted == before {
		return false
	}
	for len(p.q) > 0 {
		if p.q[0].dst == dead {
			p.q = p.q[1:]
			continue
		}
		p.step(1)
	}
	return true
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
			ref := refSum(inputs)
			for _, ac := range accums {
				cfg := Config{BlockSize: bootBS, FusionWidth: bootCols, Streams: 2,
					Aggregators: []int{100, 200}, RetransmitTimeout: time.Millisecond}
				ac.set(&cfg)
				total := pumpLen(t, cfg, inputs)
				var fastForwards int64
				for _, dead := range []int{100, 200} {
					for k := 0; k <= total; k++ {
						what := fmt.Sprintf("w%d mask %#x %s: kill %d after %d of %d", workers, mask, ac.name, dead, k, total)
						p, work := newMultiPump(t, cfg, inputs)
						p.step(k)
						p.kill(dead, 300)
						if !p.converge() {
							t.Fatalf("%s: did not converge", what)
						}
						assertExact(t, what, work, ref)

						p, work = newMultiPump(t, cfg, inputs)
						p.step(k)
						if !p.stepToCommit(dead) {
							continue
						}
						p.killBehind(dead, 300, 1)
						if !p.converge() {
							t.Fatalf("%s, a frame behind: did not converge", what)
						}
						assertExact(t, what+", a frame behind", work, ref)
						fastForwards += p.ams[300].Stats().FastForwards
					}
				}
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
	cfg := Config{BlockSize: 4, FusionWidth: 4, Streams: 2, Aggregators: []int{100, 200},
		DeterministicOrder: true, RetransmitTimeout: time.Millisecond}
	inputs := traceInputs()
	ref := refSum(inputs)
	total := pumpLen(t, cfg, inputs)
	var second int64
	for k1 := 0; k1 <= total; k1++ {
		for k2 := 0; k2 <= total-k1; k2++ {
			what := fmt.Sprintf("kill 200 after %d, its successor after %d more", k1, k2)
			p, work := newMultiPump(t, cfg, inputs)
			p.step(k1)
			p.kill(200, 300)
			p.step(k2)
			first := p.ams[300].Stats().RoundsCompleted
			p.kill(300, 400)
			if !p.converge() {
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
	ref := refSum(inputs)
	p, work := newMultiPump(t, cfg, inputs)
	for p.ams[100].Stats().RoundsCompleted < 3 {
		p.step(1)
	}
	for len(p.q) > 0 { // the third result reaches every worker
		if p.q[0].dst == 100 {
			p.q = p.q[1:]
			continue
		}
		p.step(1)
	}
	p.killBehind(100, 300, 2)
	p.step(1 << 20)

	var err error
	for i := 0; i < 64 && err == nil; i++ {
		var latest time.Duration
		for _, m := range p.wms {
			if d, ok := m.NextTimeout(); ok && d > latest {
				latest = d
			}
		}
		p.now = latest + time.Nanosecond
		for w, m := range p.wms {
			p.eb.Reset()
			if err = m.HandleTimeout(p.now, &p.eb); err != nil {
				break
			}
			p.push(w, p.eb.Emits())
		}
		p.step(1 << 20)
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
	for w := range work {
		for i, v := range work[w] {
			if v != ref[i] && v != inputs[w][i] {
				t.Fatalf("worker %d elem %d: %v is neither its input %v nor the sum %v", w, i, v, inputs[w][i], ref[i])
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
	p, work := newMultiPump(t, cfg, inputs)
	p.step(1 << 20)
	if !p.allDone() {
		t.Fatal("first collective did not converge")
	}
	assertExact(t, "first collective", work, ref)
	straggler := tmsg{src: 0, dst: 100, pkt: testClone(p.mirror[0].pkt)}
	straggler.pkt.Type, straggler.pkt.WID = wire.TypeData, 0 // a late tensor-1 data packet
	sm := p.successor(100, 100, 0)
	p.ams[100] = sm
	p.q = append(p.q, straggler)
	work = p.begin(2, inputs)
	p.step(1 << 20)
	if !p.allDone() {
		t.Fatal("collective after the handover did not converge")
	}
	assertExact(t, "collective after the handover", work, ref)
	if s := sm.Stats(); sm.ActiveSlots() != 0 || s.Replays+s.StaleFinished == 0 {
		t.Fatalf("straggler of a finished tensor reopened it on the successor: %d live slots, %+v", sm.ActiveSlots(), s)
	}

	// Mid-collective, nothing lost in flight.
	converged := 0
	for k := 0; k <= total; k++ {
		p, work := newMultiPump(t, cfg, inputs)
		p.step(k)
		p.ams[100] = p.successor(100, 100, 0)
		p.step(1 << 20)
		if p.allDone() {
			converged++
			assertExact(t, fmt.Sprintf("handover after %d", k), work, ref)
			continue
		}
		if k == 0 || k == total {
			t.Fatalf("handover after %d of %d (no collective in progress) did not converge", k, total)
		}
		for w := range work {
			for i, v := range work[w] {
				if v != ref[i] && v != inputs[w][i] {
					t.Fatalf("handover after %d: worker %d elem %d: %v is neither its input nor the sum", k, w, i, v)
				}
			}
		}
	}
	t.Logf("reliable-mode handover converged at %d of %d points", converged, total+1)
	if converged == total+1 {
		t.Fatal("every mid-collective reliable handover converged: the limitation DESIGN §12 states is gone, update it")
	}
}
