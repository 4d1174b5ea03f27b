package tenant

import (
	"errors"
	"sync"
)

// ErrSchedClosed is returned by PushWait after Close.
var ErrSchedClosed = errors.New("tenant: scheduler closed")

// DRR is a deficit-round-robin scheduler multiplexing per-flow FIFOs
// into one service order. A flow is a tensor-ID namespace (one job); its
// weight is the owning tenant's quota weight. Each visit grants a flow
// quantum×weight deficit credit; the flow is served while its credit
// covers the head item's cost (packet bytes), so over time each backlogged
// flow receives service proportional to its weight regardless of how
// aggressively other flows enqueue — the classic O(1) DRR guarantee
// (Shreedhar & Varghese).
//
// Within a flow, order is strictly FIFO — the aggregation protocol
// requires per-slot packet ordering from a given worker, and per-flow
// FIFO preserves every per-(job, slot) arrival order the previous
// single-queue design provided.
//
// Push never blocks (full flow ⇒ false: unreliable mode drops and lets
// Algorithm 2 repair); PushWait blocks for space (reliable mode must not
// drop). Pop blocks for work. One consumer and any number of producers.
type DRR[T any] struct {
	mu    sync.Mutex
	work  sync.Cond // waits: consumer for items
	space sync.Cond // waits: producers for per-flow capacity

	flows map[uint32]*drrFlow[T]
	ring  []*drrFlow[T] // backlogged flows, round-robin order
	idx   int           // ring position being served

	quantum int
	flowCap int
	n       int  // total queued items
	inTurn  bool // ring[idx] already received this turn's quantum grant
	closed  bool

	// weightOf resolves a new flow's weight (nil ⇒ weight 1). Consulted
	// once per flow activation, not per packet.
	weightOf func(ns uint32) int
}

type drrItem[T any] struct {
	v    T
	cost int
}

type drrFlow[T any] struct {
	ns      uint32
	weight  int
	deficit int
	q       []drrItem[T] // FIFO: q[head:] pending
	head    int
	queued  bool // in ring
}

func (f *drrFlow[T]) size() int { return len(f.q) - f.head }

func (f *drrFlow[T]) push(it drrItem[T]) {
	// Compact the consumed prefix before growing.
	if f.head > 0 && f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, it)
}

func (f *drrFlow[T]) pop() drrItem[T] {
	it := f.q[f.head]
	var zero drrItem[T]
	f.q[f.head] = zero // drop reference for GC
	f.head++
	return it
}

// NewDRR creates a scheduler. quantum is the per-visit byte credit for a
// weight-1 flow (a few packets' worth); flowCap bounds each flow's queue
// in items; weightOf resolves flow weights at activation (nil ⇒ 1).
func NewDRR[T any](quantum, flowCap int, weightOf func(ns uint32) int) *DRR[T] {
	if quantum <= 0 {
		quantum = 1 << 14
	}
	if flowCap <= 0 {
		flowCap = 1024
	}
	d := &DRR[T]{
		flows:    make(map[uint32]*drrFlow[T]),
		quantum:  quantum,
		flowCap:  flowCap,
		weightOf: weightOf,
	}
	d.work.L = &d.mu
	d.space.L = &d.mu
	return d
}

func (d *DRR[T]) flowLocked(ns uint32) *drrFlow[T] {
	f := d.flows[ns]
	if f == nil {
		w := 1
		if d.weightOf != nil {
			if got := d.weightOf(ns); got > 0 {
				w = got
			}
		}
		f = &drrFlow[T]{ns: ns, weight: w}
		d.flows[ns] = f
	}
	return f
}

func (d *DRR[T]) enqueueLocked(f *drrFlow[T], v T, cost int) {
	f.push(drrItem[T]{v: v, cost: cost})
	if !f.queued {
		f.queued = true
		d.ring = append(d.ring, f)
	}
	d.n++
	d.work.Signal()
}

// Push enqueues without blocking; false means the flow is at capacity
// (or the scheduler closed) and the item was not taken.
func (d *DRR[T]) Push(ns uint32, v T, cost int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	f := d.flowLocked(ns)
	if f.size() >= d.flowCap {
		return false
	}
	d.enqueueLocked(f, v, cost)
	return true
}

// PushWait enqueues, blocking while the flow is at capacity. Returns
// ErrSchedClosed if the scheduler closes while waiting.
func (d *DRR[T]) PushWait(ns uint32, v T, cost int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return ErrSchedClosed
		}
		f := d.flowLocked(ns)
		if f.size() < d.flowCap {
			d.enqueueLocked(f, v, cost)
			return nil
		}
		d.space.Wait()
	}
}

// Pop dequeues the next item in DRR service order, blocking until one is
// available. ok is false once the scheduler is closed and fully drained.
func (d *DRR[T]) Pop() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.n > 0 {
			return d.popLocked()
		}
		if d.closed {
			var zero T
			return zero, false
		}
		d.work.Wait()
	}
}

func (d *DRR[T]) popLocked() (T, bool) {
	for {
		if d.idx >= len(d.ring) {
			d.idx = 0
		}
		f := d.ring[d.idx]
		if f.size() == 0 {
			// Emptied while being served: leaves the ring with its
			// deficit forfeited (DRR rule — credit does not accrue while
			// idle).
			d.dropFlowLocked(f)
			continue
		}
		if !d.inTurn {
			// The flow's turn begins: grant its one quantum. The grant
			// happens exactly once per ring rotation, which is what bounds
			// any flow's service share at weight/Σweights.
			f.deficit += d.quantum * f.weight
			d.inTurn = true
		}
		if f.deficit < f.q[f.head].cost {
			// Credit exhausted (or the head item is larger than one
			// quantum and needs more turns to accrue): end the turn so the
			// other flows are served meanwhile.
			d.idx++
			d.inTurn = false
			continue
		}
		it := f.pop()
		f.deficit -= it.cost
		d.n--
		if f.size() == 0 {
			d.dropFlowLocked(f)
		}
		d.space.Broadcast()
		return it.v, true
	}
}

// dropFlowLocked removes the flow at d.idx from the ring.
func (d *DRR[T]) dropFlowLocked(f *drrFlow[T]) {
	f.deficit = 0
	f.queued = false
	d.ring = append(d.ring[:d.idx], d.ring[d.idx+1:]...)
	d.inTurn = false
}

// Len reports the total queued items.
func (d *DRR[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Close stops accepting new items and wakes all waiters; queued items
// remain poppable until drained.
func (d *DRR[T]) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.work.Broadcast()
	d.space.Broadcast()
}
