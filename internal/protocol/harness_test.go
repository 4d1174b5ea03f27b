package protocol

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

// The schedule harness: one small cluster of protocol machines with no
// transport, goroutines or clocks, and the only driver the machine tests
// use. It holds worker machines of either format, driven through WorkerOp
// alone; aggregator machines keyed by node ID; the frames in flight, one
// FIFO queue per link; and the mirror log of every Commit result, from
// which a killed aggregator's successor is built. Its transitions, the
// moves, deliver the head of a link, drop it, duplicate it, or time out a
// worker; a scripted run may also kill an aggregator. Two drivers run
// over them: the scripted helpers (step, drain, tick, converge, kill) and
// walk, which visits every schedule depth-first.
//
// Every delivery takes the live driver's path (internal/core's
// decodeState): the frame, encoded when it was emitted, is decoded as a
// view of its own bytes, handed to the machine, and overwritten with 0xFF
// as soon as the machine returns. A machine that kept any slice of it
// sums NaNs or reads keys no tensor has.

const aggNode = 100 // the aggregator's node ID when a test names none, distinct from worker IDs

// frame is one message in flight: its link and its encoding.
type frame struct {
	src, dst int
	buf      []byte
}

type harness struct {
	tb   testing.TB
	cfg  Config
	ops  []WorkerOp
	work [][]float32            // block format: each worker's tensor, where results land
	kv   []*SparseWorkerMachine // key-value format
	ams  map[int]*AggregatorMachine
	aggs []int // the serving list, in stream round-robin order

	// q is every frame in flight, in the order the scripted drivers
	// deliver them; a link's queue is its frames in this order.
	q   []frame
	now time.Duration

	// mirror is what a driver with standbys sends them: every Commit
	// result, in emission order. rounds is every concluded round's result,
	// committed or not: in reliable mode, which commits final results
	// only, more than the mirror. heirOf[id] lists the nodes whose position
	// id took over, oldest first: a standby of id was sent their results.
	mirror, rounds []frame
	heirOf         map[int][]int

	// fault, when set, sees every emit as it is queued (n counts them) and
	// returns how many copies to queue: 0 drops it, 2 duplicates it. With
	// swap, each queued frame also trades places with the one before it
	// when the two are on distinct links (per-link FIFO holds).
	fault   func(n, src int, e *Emit) int
	swap    bool
	emitted int

	// observe, when set, sees every message as it is delivered, just
	// before its machine does. check holds the state to a test's
	// invariants after every scripted step and every walked move, and
	// with end set where a walked schedule ends.
	observe func(f *frame, msg Msg)
	check   func(end bool) error

	path                  []string // the moves made, in order
	drops, dups, timeouts int      // faults among them
	// hist[id] hashes node id's inputs, in order: a machine is a
	// deterministic function of them, so with the frames in flight they
	// identify the state (key) without reading a machine's fields.
	hist map[int][sha256.Size]byte
	sha  hash.Hash

	eb     EmitBuf
	pkt    wire.Packet
	sparse wire.SparsePacket
	keys   []int32
	vals   []float32
}

// newHarness builds a cluster of workers and cfg's aggregators (aggNode
// alone if cfg names none) with no collective started.
func newHarness(tb testing.TB, cfg Config, workers int) *harness {
	tb.Helper()
	cfg.Workers = workers
	if len(cfg.Aggregators) == 0 {
		cfg.Aggregators = []int{aggNode}
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	h := &harness{tb: tb, cfg: cfg, ams: map[int]*AggregatorMachine{}, aggs: slices.Clone(cfg.Aggregators),
		heirOf: map[int][]int{}, hist: map[int][sha256.Size]byte{}, sha: sha256.New()}
	for _, id := range cfg.Aggregators {
		h.ams[id] = NewAggregatorMachine(cfg, id)
	}
	return h
}

// newDense is newHarness with collective 1 begun over inputs; it returns
// the tensors the results land in.
func newDense(tb testing.TB, cfg Config, inputs [][]float32) (*harness, [][]float32) {
	h := newHarness(tb, cfg, len(inputs))
	return h, h.begin(1, inputs)
}

// begin starts block-format collective tid over copies of inputs, which it
// returns, on fresh worker machines bound to the serving list.
func (h *harness) begin(tid uint32, inputs [][]float32) [][]float32 {
	cfg := h.cfg
	cfg.Aggregators = slices.Clone(h.aggs)
	h.ops, h.kv = nil, nil
	h.work = make([][]float32, len(inputs))
	for w := range inputs {
		h.work[w] = slices.Clone(inputs[w])
		h.ops = append(h.ops, NewWorkerMachine(cfg, w, tid))
	}
	for w, op := range h.ops {
		h.record(w, 'b', uint64(tid), 0, nil)
		h.eb.Reset()
		op.(*WorkerMachine).Start(NewDenseView(h.work[w], cfg.BlockSize, cfg.ForceDense), h.now, &h.eb)
		h.push(w, h.eb.Emits())
	}
	return h.work
}

// beginKV starts key-value collective tid over ins on fresh worker machines.
func (h *harness) beginKV(tid uint32, ins []*tensor.COO) {
	cfg := h.cfg
	cfg.Aggregators = slices.Clone(h.aggs)
	h.ops, h.kv, h.work = nil, nil, nil
	for w, in := range ins {
		m, err := NewSparseWorkerMachine(cfg, w, tid, in)
		if err != nil {
			h.tb.Fatal(err)
		}
		h.kv = append(h.kv, m)
		h.ops = append(h.ops, m)
		h.record(w, 'b', uint64(tid), 0, nil)
		h.eb.Reset()
		m.Start(&h.eb)
		h.push(w, h.eb.Emits())
	}
}

// push queues one machine call's emits, encoded, and logs the results a
// standby would be sent.
func (h *harness) push(src int, emits []Emit) {
	if e := Committed(emits); e != nil {
		h.mirror = append(h.mirror, frame{src: src, buf: e.Encode(nil)})
	}
	for i := range emits {
		e := &emits[i]
		f := frame{src: src, dst: e.Dst, buf: e.Encode(nil)}
		copies := 1
		if h.fault != nil {
			copies = h.fault(h.emitted, src, e)
		}
		h.emitted++
		for c := 0; c < copies; c++ {
			h.q = append(h.q, f)
			f.buf = slices.Clone(f.buf) // a delivered copy is poisoned
		}
		if n := len(h.q); h.swap && n >= 2 && (h.q[n-2].src != h.q[n-1].src || h.q[n-2].dst != h.q[n-1].dst) {
			h.q[n-2], h.q[n-1] = h.q[n-1], h.q[n-2]
		}
	}
}

// poison overwrites a delivered frame with 0xFF (NaN payloads, keys no
// tensor has): what the buffer pool may do to it once a live driver has
// released it.
func poison(buf []byte) {
	for i := range buf {
		buf[i] = 0xFF
	}
}

// decode is the live drivers' one decoder: a data or result frame of
// either format, as a view of buf, into the harness's reusable shells.
func (h *harness) decode(buf []byte) (Msg, error) {
	switch t := wire.PeekType(buf); t {
	case wire.TypeData, wire.TypeResult:
		vals, err := wire.DecodePacketView(&h.pkt, h.vals, buf)
		h.vals = vals
		return Msg{Dense: &h.pkt}, err
	case wire.TypeSparseData, wire.TypeSparseResult:
		keys, vals, err := wire.DecodeSparsePacketView(&h.sparse, h.keys, h.vals, buf)
		h.keys, h.vals = keys, vals
		return Msg{Sparse: &h.sparse}, err
	default:
		return Msg{}, fmt.Errorf("unexpected message type %d", t)
	}
}

// handle hands f to its destination and queues what the machine emits,
// which it also returns (valid until the next machine call). A frame for a
// node that is neither a worker nor a live aggregator is lost, as the
// fabric loses one sent to a dead process.
func (h *harness) handle(f frame) ([]Emit, error) {
	msg, err := h.decode(f.buf)
	if err != nil {
		return nil, fmt.Errorf("decode %d>%d: %w", f.src, f.dst, err)
	}
	if h.observe != nil {
		h.observe(&f, msg)
	}
	am := h.ams[f.dst]
	if am == nil && f.dst >= len(h.ops) {
		return nil, nil
	}
	h.eb.Reset()
	if am != nil {
		h.record(f.dst, 'm', uint64(f.src), 0, f.buf)
		before := am.Stats().RoundsCompleted
		err = am.HandlePacket(msg, &h.eb)
		if am.Stats().RoundsCompleted != before {
			h.rounds = append(h.rounds, frame{src: f.dst, buf: h.eb.Emits()[0].Encode(nil)})
		}
	} else {
		h.record(f.dst, 'm', uint64(f.src), uint64(h.now), f.buf)
		err = h.ops[f.dst].HandleMsg(msg, h.now, &h.eb)
	}
	poison(f.buf)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", f.dst, err)
	}
	h.push(f.dst, h.eb.Emits())
	return h.eb.Emits(), nil
}

// fire runs worker w's timeout handler at the current time.
func (h *harness) fire(w int) error {
	h.record(w, 't', uint64(h.now), 0, nil)
	h.eb.Reset()
	if err := h.ops[w].HandleTimeout(h.now, &h.eb); err != nil {
		return fmt.Errorf("worker %d timeout: %w", w, err)
	}
	h.push(w, h.eb.Emits())
	return nil
}

// record appends one input to node id's history: its kind, two numbers
// and its bytes.
func (h *harness) record(id int, kind byte, a, b uint64, data []byte) {
	prev := h.hist[id]
	h.sha.Reset()
	h.sha.Write(prev[:])
	h.sha.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{kind}, a), b))
	h.sha.Write(data)
	h.sha.Sum(prev[:0])
	h.hist[id] = prev
}

// key identifies the state: every node's input history, the frames on
// each link in order, the faults applied and the clock. Two schedules
// that reach the same key have the same continuations.
func (h *harness) key() [sha256.Size]byte {
	h.sha.Reset()
	for _, id := range slices.Sorted(maps.Keys(h.hist)) {
		hs := h.hist[id]
		h.sha.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
		h.sha.Write(hs[:])
	}
	q := slices.Clone(h.q)
	slices.SortStableFunc(q, func(a, b frame) int { return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst)) })
	for _, f := range q {
		h.sha.Write(binary.LittleEndian.AppendUint64(nil, uint64(f.src)<<40|uint64(f.dst)<<20|uint64(len(f.buf))))
		h.sha.Write(f.buf)
	}
	h.sha.Write(binary.LittleEndian.AppendUint64(nil, uint64(h.drops)<<56|uint64(h.dups)<<48|uint64(h.timeouts)<<40|uint64(h.now)))
	var k [sha256.Size]byte
	h.sha.Sum(k[:0])
	return k
}

// assertExact fails t unless every worker's tensor in work is ref, bit
// for bit.
func assertExact(t *testing.T, what string, work [][]float32, ref []float32) {
	t.Helper()
	for w := range work {
		for i, v := range work[w] {
			if !sameBits(v, ref[i]) {
				t.Fatalf("%s: worker %d elem %d: %v != %v", what, w, i, v, ref[i])
			}
		}
	}
}

// The scripted driver.

// fatal fails the test with err and, if moves were made, the schedule
// that led here, comma-separated, as a seed replays it.
func (h *harness) fatal(err error) {
	h.tb.Helper()
	if len(h.path) > 0 {
		h.tb.Fatalf("%v\nschedule: %s", err, strings.Join(h.path, ", "))
	}
	h.tb.Fatal(err)
}

// step delivers up to n frames in queue order and reports how many it
// delivered.
func (h *harness) step(n int) int {
	h.tb.Helper()
	i := 0
	for ; i < n && len(h.q) > 0; i++ {
		f := h.q[0]
		h.q = h.q[1:]
		if _, err := h.handle(f); err != nil {
			h.fatal(err)
		}
		if h.check != nil {
			if err := h.check(false); err != nil {
				h.fatal(err)
			}
		}
	}
	return i
}

// drain delivers until nothing is in flight.
func (h *harness) drain() { h.step(math.MaxInt) }

// tick advances the clock past every pending deadline and fires every
// worker's timeout handler, stopping at the first error.
func (h *harness) tick() error {
	var latest time.Duration
	for _, op := range h.ops {
		if d, ok := op.NextTimeout(); ok && d > latest {
			latest = d
		}
	}
	h.now = latest + time.Nanosecond
	for w := range h.ops {
		if err := h.fire(w); err != nil {
			return err
		}
	}
	return nil
}

// converge drains, then up to ticks times fires the timers and drains
// again while a worker is not done, and reports whether all are.
func (h *harness) converge(ticks int) bool {
	h.tb.Helper()
	h.drain()
	for i := 0; i < ticks && !h.allDone(); i++ {
		if err := h.tick(); err != nil {
			h.fatal(err)
		}
		h.drain()
	}
	return h.allDone()
}

func (h *harness) allDone() bool {
	for _, op := range h.ops {
		if !op.Done() {
			return false
		}
	}
	return true
}

// stepToCommit delivers the next frame, which must be for dead, and
// reports whether dead concluded a round on it. If so it then delivers
// that round's results (and whatever else is not bound for dead, which is
// lost), so every worker holds the result the lost mirror frame carried:
// the situation a standby on a lossy link is in, and the only one
// fast-forward covers.
func (h *harness) stepToCommit(dead int) bool {
	if len(h.q) == 0 || h.q[0].dst != dead {
		return false
	}
	before := h.ams[dead].Stats().RoundsCompleted
	h.step(1)
	if h.ams[dead].Stats().RoundsCompleted == before {
		return false
	}
	h.drainLosing(dead)
	return true
}

// drainLosing drains, losing every frame bound for node id.
func (h *harness) drainLosing(id int) {
	for len(h.q) > 0 {
		if h.q[0].dst == id {
			h.q = h.q[1:]
			continue
		}
		h.step(1)
	}
}

// inject queues buf on link src>dst, as if src had sent it.
func (h *harness) inject(src, dst int, buf []byte) {
	h.q = append(h.q, frame{src: src, dst: dst, buf: buf})
}

// successor builds the machine a standby at node id would take over
// dead's position with: a fresh one that has adopted, in order, the
// results dead (and the nodes dead itself succeeded) committed, and
// nothing else. The newest behind of them never reached the standby.
func (h *harness) successor(dead, id, behind int) *AggregatorMachine {
	return h.successorOf(h.mirror, dead, id, behind)
}

// successorOf is successor built from log instead of the mirror.
func (h *harness) successorOf(log []frame, dead, id, behind int) *AggregatorMachine {
	from := map[int]bool{dead: true}
	for _, n := range h.heirOf[dead] {
		from[n] = true
	}
	var frames []*wire.Packet
	for _, l := range log {
		if from[l.src] {
			p, err := wire.DecodePacket(l.buf)
			if err != nil {
				h.tb.Fatal(err)
			}
			frames = append(frames, p)
		}
	}
	behind = min(behind, len(frames))
	sm := NewAggregatorMachine(h.cfg, id)
	for _, p := range frames[:len(frames)-behind] {
		sm.AdoptResult(p)
	}
	return sm
}

// kill replaces dead's machine with a successor at node standby built from
// dead's mirror, loses everything in flight to the corpse, and rebinds
// every worker to the updated serving list.
func (h *harness) kill(dead, standby int) { h.killBehind(dead, standby, 0) }

// killBehind is kill with a standby that missed dead's last behind frames.
func (h *harness) killBehind(dead, standby, behind int) {
	h.ams[standby] = h.successor(dead, standby, behind)
	h.heirOf[standby] = append(slices.Clone(h.heirOf[dead]), dead)
	hd := h.hist[dead]
	h.record(standby, 'k', uint64(dead), uint64(behind), hd[:])
	delete(h.ams, dead)
	h.q = slices.DeleteFunc(h.q, func(f frame) bool { return f.dst == dead })
	for i, id := range h.aggs {
		if id == dead {
			h.aggs[i] = standby
		}
	}
	for w, op := range h.ops {
		h.record(w, 'r', uint64(standby), uint64(h.now), nil)
		h.eb.Reset()
		op.Rebind(h.aggs, h.now, &h.eb)
		h.push(w, h.eb.Emits())
	}
}

// Moves, and the walk.
//
// A move is one transition, written as a failure prints it and a seed
// replays it: "deliver s>d", "drop s>d" and "dup s>d" act on the head of
// link s>d (a duplicate goes right behind it); "timeout w" fires worker
// w's timer, the clock advancing to its deadline. Killing an aggregator
// is scripted only (kill, killBehind).

// apply makes move m.
func (h *harness) apply(m string) error {
	h.path = append(h.path, m)
	op, arg, _ := strings.Cut(m, " ")
	a, b, _ := strings.Cut(arg, ">")
	src, err := strconv.Atoi(a)
	dst, err2 := strconv.Atoi(b)
	switch {
	case err != nil || (op != "timeout" && err2 != nil):
		return fmt.Errorf("%q: not a move", m)
	case op == "timeout":
		if src < 0 || src >= len(h.ops) {
			return fmt.Errorf("%q: no such worker", m)
		}
		if d, ok := h.ops[src].NextTimeout(); ok && d > h.now {
			h.now = d
		}
		h.timeouts++
		return h.fire(src)
	}
	i := slices.IndexFunc(h.q, func(f frame) bool { return f.src == src && f.dst == dst })
	if i < 0 {
		return fmt.Errorf("%q: nothing in flight on the link", m)
	}
	f := h.q[i]
	switch op {
	case "deliver":
		h.q = slices.Delete(h.q, i, i+1)
		_, err := h.handle(f)
		return err
	case "drop":
		h.q = slices.Delete(h.q, i, i+1)
		h.drops++
	case "dup":
		f.buf = slices.Clone(f.buf)
		h.q = slices.Insert(h.q, i+1, f)
		h.dups++
	default:
		return fmt.Errorf("%q: not a move", m)
	}
	return nil
}

// inFlight is how many frames are in flight on link src>dst.
func (h *harness) inFlight(src, dst int) int {
	n := 0
	for _, f := range h.q {
		if f.src == src && f.dst == dst {
			n++
		}
	}
	return n
}

// walk visits every state reachable from root() by moves (which gets
// the depth, the length of the schedule so far) and returns how many
// distinct states (key) it visited and how many complete schedules there
// are. check runs after every move, and again with end set on the first
// visit to a state with no move, which ends a schedule. A failure prints
// the schedule that reached it (fatal).
//
// No machine is ever copied: the first move out of a state is made on the
// harness in hand, each further one on a harness rebuilt by replaying the
// schedule from root, which the machines' determinism makes the same
// state.
func walk(root func() *harness, moves func(h *harness, depth int) []string) (states int, schedules float64) {
	seen := map[[sha256.Size]byte]float64{}
	var visit func(h *harness) float64
	visit = func(h *harness) float64 {
		if h.check != nil {
			if err := h.check(false); err != nil {
				h.fatal(err)
			}
		}
		k := h.key()
		if n, ok := seen[k]; ok {
			return n
		}
		depth := len(h.path)
		ms := moves(h, depth)
		if len(ms) == 0 && h.check != nil {
			if err := h.check(true); err != nil {
				h.fatal(err)
			}
		}
		n := 0.0
		if len(ms) == 0 {
			n = 1
		}
		for i, m := range ms {
			c := h
			if i > 0 {
				c = root()
				for _, p := range h.path[:depth] {
					if err := c.apply(p); err != nil {
						c.fatal(fmt.Errorf("replay diverged: %w", err))
					}
				}
			}
			if err := c.apply(m); err != nil {
				c.fatal(err)
			}
			n += visit(c)
		}
		seen[k] = n
		return n
	}
	n := visit(root())
	return len(seen), n
}

// deliveries is the moves of a fault-free schedule: deliver the head of
// any link.
func deliveries(h *harness, _ int) []string { return onHeads(h, -1, "deliver") }

// onHeads is each of ops on the head of every link with a frame in
// flight into node dst (any node if dst < 0), ordered by (src, dst).
func onHeads(h *harness, dst int, ops ...string) []string {
	var ls [][2]int
	for _, f := range h.q {
		if l := [2]int{f.src, f.dst}; (dst < 0 || f.dst == dst) && !slices.Contains(ls, l) {
			ls = append(ls, l)
		}
	}
	slices.SortFunc(ls, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	var ms []string
	for _, l := range ls {
		for _, op := range ops {
			ms = append(ms, fmt.Sprintf("%s %d>%d", op, l[0], l[1]))
		}
	}
	return ms
}

// replayer is the moves of one schedule, written as a failure prints it.
func replayer(sched string) func(*harness, int) []string {
	ms := strings.Split(sched, ", ")
	return func(_ *harness, depth int) []string {
		if depth < len(ms) {
			return ms[depth : depth+1]
		}
		return nil
	}
}
