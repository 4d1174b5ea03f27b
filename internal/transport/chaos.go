package transport

import (
	"sync"
	"time"
)

// Chaos fabric: a seeded, scriptable datagram-pathology injector.
//
// Chaos is the one live fault injector: a fabric-wide wrapper that
// composes every pathology the paper's DPDK/UDP loss-recovery evaluation
// (§6, Appendix D) and real datacenter networks exhibit:
//
//   - uniform random loss,
//   - bursty loss following the Gilbert–Elliott two-state Markov model,
//   - duplication,
//   - bounded reordering (messages held back for a fixed span),
//   - per-link delay, and
//   - one-way partitions (blackholing a directed link).
//
// All decisions derive from a single Scenario seed through a stateless
// splitmix64 hash of (seed, src, dst, per-link sequence number), so the
// decision taken for the k-th message on a given directed link is a pure
// function of the scenario — independent of goroutine scheduling and of
// what other links do. Re-running a scenario replays identical injection
// decisions, which is what makes failures reproducible.
//
// Schedules are expressed in per-link packet counts, not wall-clock time:
// each directed link advances through the scenario's phases after sending
// Phase.Packets messages. Counting packets instead of seconds keeps phase
// transitions deterministic under retransmission-timer noise.

// Burst is a Gilbert–Elliott two-state loss model: a link flips between a
// good and a bad state with the given per-packet transition probabilities
// and drops packets with a state-dependent probability.
type Burst struct {
	// PEnter is P(good -> bad) evaluated once per packet.
	PEnter float64
	// PExit is P(bad -> good) evaluated once per packet.
	PExit float64
	// DropGood is the drop probability in the good state (usually 0).
	DropGood float64
	// DropBad is the drop probability in the bad state (usually near 1).
	DropBad float64
}

// Partition blackholes a directed link. From/To of -1 are wildcards, so
// Partition{From: 2, To: -1} silences everything node 2 sends while still
// delivering traffic to it — the paper's one-way failure case.
type Partition struct {
	From, To int
}

func (p Partition) matches(from, to int) bool {
	return (p.From == -1 || p.From == from) && (p.To == -1 || p.To == to)
}

// Phase is one step of a chaos schedule. Zero-valued fields inject
// nothing, so Phase{Packets: 100} is a clean phase.
type Phase struct {
	// Packets is the number of messages each directed link spends in this
	// phase before advancing to the next one; 0 means "until the end of
	// the run" (only meaningful for the final phase).
	Packets int
	// Drop is the uniform per-message loss probability.
	Drop float64
	// Burst, when non-nil, adds Gilbert–Elliott bursty loss on top of the
	// uniform loss.
	Burst *Burst
	// Dup is the probability a delivered message is sent twice.
	Dup float64
	// Reorder is the probability a message is held back and released only
	// after ReorderSpan subsequent messages on the same link, swapping its
	// position in the stream.
	Reorder float64
	// ReorderSpan bounds how many later messages overtake a held one
	// (default 1: an adjacent swap).
	ReorderSpan int
	// Delay is the maximum extra latency added to a delayed message; the
	// actual delay is a deterministic fraction of it.
	Delay time.Duration
	// DelayP is the probability a message is delayed.
	DelayP float64
	// Partitions lists the directed links blackholed during this phase.
	Partitions []Partition
}

// Scenario is a seeded chaos script: the same Scenario always produces the
// same per-link injection decisions.
type Scenario struct {
	// Seed drives every injection decision.
	Seed int64
	// Window is the per-link packet count over which injection events are
	// tallied into WindowEvents. As long as every link sends at least
	// Window messages (true for any run that completes more rounds than
	// Window), the tally is exactly reproducible across runs; 0 counts
	// every event, which is reproducible only if total traffic is.
	Window int
	// Phases is the per-link schedule; a link past the final phase (or an
	// empty schedule) experiences no injection.
	Phases []Phase
}

// phaseAt returns the phase governing a link's seq-th packet, or nil after
// the schedule is exhausted.
func (sc *Scenario) phaseAt(seq int) *Phase {
	start := 0
	for i := range sc.Phases {
		p := &sc.Phases[i]
		if p.Packets <= 0 || seq < start+p.Packets {
			return p
		}
		start += p.Packets
	}
	return nil
}

// EventCounts tallies the injections a fabric performed.
type EventCounts struct {
	Sent        int64 // messages offered to the fabric
	Dropped     int64 // uniform-loss drops
	BurstDrops  int64 // Gilbert–Elliott drops
	Duplicated  int64
	Reordered   int64 // messages held and released out of order
	Delayed     int64
	Partitioned int64 // messages blackholed by a partition
}

// Total returns the number of injection events (Sent excluded).
func (e EventCounts) Total() int64 {
	return e.Dropped + e.BurstDrops + e.Duplicated + e.Reordered + e.Delayed + e.Partitioned
}

// ChaosFabric owns the shared per-link state of one chaos scenario. Wrap
// every participant's Conn with Wrap; the fabric keys its state by the
// directed (src, dst) pair, so a scenario describes the whole network.
type ChaosFabric struct {
	sc Scenario

	mu           sync.Mutex
	links        map[linkKey]*linkState
	counts       EventCounts
	windowEvents int64
}

type linkKey struct{ from, to int }

type linkState struct {
	seq  int  // messages offered on this link so far
	bad  bool // Gilbert–Elliott state
	held []heldEntry
}

// heldEntry is one message held back for reordering. data is a pooled
// buffer the fabric owns until the entry is released (sent) or its sender
// closes.
type heldEntry struct {
	to     int
	data   []byte
	dueSeq int // release once the link's seq reaches this value
}

// NewChaosFabric creates the shared injector for a scenario.
func NewChaosFabric(sc Scenario) *ChaosFabric {
	return &ChaosFabric{sc: sc, links: make(map[linkKey]*linkState)}
}

// Scenario returns the fabric's script.
func (f *ChaosFabric) Scenario() Scenario { return f.sc }

// Counts returns a snapshot of the injection tallies.
func (f *ChaosFabric) Counts() EventCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// WindowEvents returns the number of injection events that occurred within
// the first Scenario.Window packets of each link — the deterministic
// replay fingerprint of a run.
func (f *ChaosFabric) WindowEvents() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.windowEvents
}

// Wrap returns a Conn that routes inner's outgoing traffic through the
// fabric. Recv, LocalID, and Close pass through.
func (f *ChaosFabric) Wrap(inner Conn) *ChaosConn {
	return &ChaosConn{f: f, inner: inner}
}

// splitmix64 is the stateless mixing function behind every decision.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Per-decision salts, so independent decisions on the same packet draw
// independent uniforms.
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltReorder
	saltDelayP
	saltDelayD
	saltGEFlip
	saltGEDrop
)

// roll returns a deterministic uniform in [0, 1) for one decision on one
// packet of one link.
func (f *ChaosFabric) roll(from, to, seq int, salt uint64) float64 {
	h := splitmix64(uint64(f.sc.Seed))
	h = splitmix64(h ^ uint64(uint32(from)))
	h = splitmix64(h ^ uint64(uint32(to))<<32)
	h = splitmix64(h ^ uint64(uint32(seq)))
	h = splitmix64(h ^ salt)
	return float64(h>>11) / (1 << 53)
}

// decision is the plan computed for one message under the fabric lock and
// executed outside it.
type decision struct {
	send     bool
	dup      bool
	delay    time.Duration
	releases []heldEntry
	hold     bool
}

// decide advances the link state for one message and computes its fate.
// owned says the caller is giving data away (SendBatch): a held message
// then keeps the buffer itself, where a borrowed one (Send) is copied.
func (f *ChaosFabric) decide(from, to int, data []byte, owned bool) decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := linkKey{from, to}
	ls := f.links[key]
	if ls == nil {
		ls = &linkState{}
		f.links[key] = ls
	}
	seq := ls.seq
	ls.seq++
	f.counts.Sent++
	inWindow := f.sc.Window == 0 || seq < f.sc.Window
	event := func(counter *int64) {
		*counter++
		if inWindow {
			f.windowEvents++
		}
	}

	var d decision
	// Due held messages are released regardless of the current message's
	// fate, preserving the bounded-reorder guarantee.
	rest := ls.held[:0]
	for _, h := range ls.held {
		if h.dueSeq <= ls.seq {
			d.releases = append(d.releases, h)
		} else {
			rest = append(rest, h)
		}
	}
	ls.held = rest

	ph := f.sc.phaseAt(seq)
	if ph == nil {
		d.send = true
		return d
	}
	for _, part := range ph.Partitions {
		if part.matches(from, to) {
			event(&f.counts.Partitioned)
			return d
		}
	}
	if ph.Burst != nil {
		// Advance the Gilbert–Elliott chain, then apply the state's drop
		// probability. The chain is per-link and per-packet, so its state
		// at seq k is a deterministic fold over rolls 0..k.
		flip := f.roll(from, to, seq, saltGEFlip)
		if ls.bad {
			if flip < ph.Burst.PExit {
				ls.bad = false
			}
		} else if flip < ph.Burst.PEnter {
			ls.bad = true
		}
		dropP := ph.Burst.DropGood
		if ls.bad {
			dropP = ph.Burst.DropBad
		}
		if dropP > 0 && f.roll(from, to, seq, saltGEDrop) < dropP {
			event(&f.counts.BurstDrops)
			return d
		}
	}
	if ph.Drop > 0 && f.roll(from, to, seq, saltDrop) < ph.Drop {
		event(&f.counts.Dropped)
		return d
	}
	if ph.Reorder > 0 && f.roll(from, to, seq, saltReorder) < ph.Reorder {
		span := ph.ReorderSpan
		if span <= 0 {
			span = 1
		}
		buf := data
		if !owned {
			buf = GetBuf(len(data))
			copy(buf, data)
		}
		ls.held = append(ls.held, heldEntry{to: to, data: buf, dueSeq: ls.seq + span})
		event(&f.counts.Reordered)
		d.hold = true
		return d
	}
	d.send = true
	if ph.Dup > 0 && f.roll(from, to, seq, saltDup) < ph.Dup {
		event(&f.counts.Duplicated)
		d.dup = true
	}
	if ph.Delay > 0 && ph.DelayP > 0 && f.roll(from, to, seq, saltDelayP) < ph.DelayP {
		frac := f.roll(from, to, seq, saltDelayD)
		d.delay = time.Duration(frac * float64(ph.Delay))
		if d.delay <= 0 {
			d.delay = time.Nanosecond
		}
		event(&f.counts.Delayed)
	}
	return d
}

// ChaosConn routes one endpoint's sends through its fabric.
type ChaosConn struct {
	f     *ChaosFabric
	inner Conn
}

// Send applies the scenario to one outgoing message.
func (c *ChaosConn) Send(to int, data []byte) error {
	d := c.f.decide(c.inner.LocalID(), to, data, false)
	var err error
	if d.send {
		if d.delay > 0 {
			c.sendLater(to, data, d)
		} else {
			err = c.inner.Send(to, data)
			if err == nil && d.dup {
				err = c.inner.Send(to, data)
			}
		}
	}
	if e := c.sendHeld(d.releases); e != nil && err == nil {
		err = e
	}
	return err
}

// sendLater delivers a private copy of data after d.delay. A delayed
// message outlives the call either way, so it never keeps the caller's
// buffer; delivery errors after close are unreportable and intentionally
// dropped, like a packet dying in flight.
func (c *ChaosConn) sendLater(to int, data []byte, d decision) {
	buf := make([]byte, len(data))
	copy(buf, data)
	time.AfterFunc(d.delay, func() {
		_ = c.inner.Send(to, buf)
		if d.dup {
			_ = c.inner.Send(to, buf)
		}
	})
}

// sendHeld transmits released reorder-held messages and recycles their
// buffers.
func (c *ChaosConn) sendHeld(rel []heldEntry) error {
	var err error
	for _, h := range rel {
		if e := c.inner.Send(h.to, h.data); e != nil && err == nil {
			err = e
		}
		PutBuf(h.data)
	}
	return err
}

// SendBatch applies the scenario to a whole burst of outgoing messages and
// forwards the survivors through SendAll, so the inner transport sends them
// its own way (the channel fabric without a copy, UDP one datagram at a
// time). Per-message fates are identical to Send's — decide() advances the
// same per-link state in the same order — so a burst injects exactly what
// the same messages sent one by one would. Delayed messages leave the
// batch (they need a timer and a private copy), matching Send.
//
// The batch owns its buffers (see Outgoing), and so does everything it
// forwards: a survivor goes on as it is, a duplicate is a pooled copy of
// its own, a held message stays with the fabric until its release joins a
// later batch, and a dropped or delayed one is recycled here.
func (c *ChaosConn) SendBatch(msgs []Outgoing) error {
	from := c.inner.LocalID()
	out := make([]Outgoing, 0, len(msgs))
	for _, m := range msgs {
		d := c.f.decide(from, m.To, m.Data, true)
		switch {
		case d.send && d.delay > 0:
			c.sendLater(m.To, m.Data, d)
			PutBuf(m.Data)
		case d.send:
			out = append(out, m)
			if d.dup {
				buf := GetBuf(len(m.Data))
				copy(buf, m.Data)
				out = append(out, Outgoing{To: m.To, Data: buf})
			}
		case !d.hold:
			PutBuf(m.Data)
		}
		for _, h := range d.releases {
			out = append(out, Outgoing{To: h.to, Data: h.data})
		}
	}
	return SendAll(c.inner, out)
}

// takeHeld removes and returns every message the fabric still holds for
// reordering on this endpoint's links.
func (c *ChaosConn) takeHeld() []heldEntry {
	from := c.inner.LocalID()
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	var rel []heldEntry
	for k, ls := range c.f.links {
		if k.from == from {
			rel = append(rel, ls.held...)
			ls.held = nil
		}
	}
	return rel
}

// Flush releases every message the fabric still holds for reordering on
// this endpoint's links. Rarely needed: held messages self-release as
// retransmissions generate new traffic on the link.
func (c *ChaosConn) Flush() error { return c.sendHeld(c.takeHeld()) }

// Recv forwards to the inner connection.
func (c *ChaosConn) Recv() (Message, error) { return c.inner.Recv() }

// LocalID forwards to the inner connection.
func (c *ChaosConn) LocalID() int { return c.inner.LocalID() }

// Close drops whatever the fabric still holds for this endpoint's links
// (a message held when its sender goes away is lost, and its buffer must
// not be) and closes the inner connection.
func (c *ChaosConn) Close() error {
	for _, h := range c.takeHeld() {
		PutBuf(h.data)
	}
	return c.inner.Close()
}
