package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"omnireduce/internal/transport"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was made; Parent is the index of the span
// that caused this one (-1 for a root); Op is shared by all spans of one
// collective (-1 for replay rungs, which belong to no live op).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Node   int    `json:"node"`
	Bytes  int    `json:"bytes,omitempty"`
}

// detailOps is how many traced ops keep a child span per transport call.
// Every op keeps its root span and every call is counted; a dense op makes
// ~4000 transport calls, so keeping them all would cost more memory
// traffic than the calls being observed.
const detailOps = 4

// tracer collects spans in memory; they are written out once, at exit.
// All methods are safe on a nil tracer (untraced runs) and do nothing
// while the tracer is off.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	// curOp is the index of the running op's root span, curID its op id
	// and curStart its start; ops of one runner never overlap, so one set
	// is enough.
	curOp    atomic.Int64
	curID    atomic.Int64
	curStart atomic.Int64

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.curOp.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) beginOp() int {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	id := t.ops
	t.ops++
	start := t.now()
	t.spans = append(t.spans, span{Name: "op", Start: start, Parent: -1, Op: id, Node: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	t.curID.Store(int64(id))
	t.curStart.Store(start)
	t.curOp.Store(int64(i))
	return i
}

func (t *tracer) endOp(i int) {
	if i < 0 {
		return
	}
	t.curOp.Store(-1)
	t.mu.Lock()
	t.spans[i].End = t.now()
	t.mu.Unlock()
}

// call records one transport call made on behalf of the running op.
func (t *tracer) call(name string, start, end int64, node, bytes int) {
	parent, id := t.curOp.Load(), t.curID.Load()
	if parent < 0 || id >= detailOps {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: int(parent), Op: int(id), Node: node, Bytes: bytes})
	t.mu.Unlock()
}

// rung times f as a root span named after the layer function it replays.
func (t *tracer) rung(name string, f func()) time.Duration {
	start := t.now()
	f()
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Op: -1, Node: -1})
	t.mu.Unlock()
	return time.Duration(end - start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// maxNodes bounds the node IDs a rig uses (workers, aggregator, standby).
const maxNodes = standbyID + 1

// linkStats counts one direction of one endpoint's traffic.
type linkStats struct {
	calls atomic.Int64 // Send/SendBatch/Recv invocations
	msgs  atomic.Int64
	bytes atomic.Int64
	ns    atomic.Int64 // time inside the calls
}

// tracedConn wraps a transport.Conn where core meets transport: how long
// Send and SendBatch take (work), how long Recv blocks (waiting), and how
// many messages and bytes move, per endpoint and per destination.
type tracedConn struct {
	inner transport.Conn
	tr    *tracer
	node  int

	send linkStats           // whole endpoint; ns is wall time inside Send/SendBatch
	to   [maxNodes]linkStats // per destination; a batch's time is split by bytes
	recv linkStats           // ns is time blocked in Recv
}

func (c *tracedConn) LocalID() int { return c.inner.LocalID() }
func (c *tracedConn) Close() error { return c.inner.Close() }

func (c *tracedConn) Send(to int, data []byte) error {
	if !c.tr.on.Load() {
		return c.inner.Send(to, data)
	}
	start := c.tr.now()
	err := c.inner.Send(to, data)
	end := c.tr.now()
	c.send.calls.Add(1)
	c.send.msgs.Add(1)
	c.send.bytes.Add(int64(len(data)))
	c.send.ns.Add(end - start)
	if to >= 0 && to < maxNodes {
		d := &c.to[to]
		d.calls.Add(1)
		d.msgs.Add(1)
		d.bytes.Add(int64(len(data)))
		d.ns.Add(end - start)
	}
	c.tr.call("transport.Send", start, end, c.node, len(data))
	return err
}

// SendBatch keeps the batched engine reachable through the wrapper: core
// hands bursts to transport.SendAll, which picks sendmmsg only when the
// Conn it is given is a BatchSender.
func (c *tracedConn) SendBatch(msgs []transport.Outgoing) error {
	if !c.tr.on.Load() {
		return transport.SendAll(c.inner, msgs)
	}
	start := c.tr.now()
	err := transport.SendAll(c.inner, msgs)
	end := c.tr.now()
	total := 0
	for _, m := range msgs {
		total += len(m.Data)
	}
	c.send.calls.Add(1)
	c.send.msgs.Add(int64(len(msgs)))
	c.send.bytes.Add(int64(total))
	c.send.ns.Add(end - start)
	for _, m := range msgs {
		if m.To >= 0 && m.To < maxNodes && total > 0 {
			d := &c.to[m.To]
			d.msgs.Add(1)
			d.bytes.Add(int64(len(m.Data)))
			d.ns.Add((end - start) * int64(len(m.Data)) / int64(total))
		}
	}
	c.tr.call("transport.SendBatch", start, end, c.node, total)
	return err
}

func (c *tracedConn) Recv() (transport.Message, error) {
	if !c.tr.on.Load() {
		return c.inner.Recv()
	}
	start := c.tr.now()
	m, err := c.inner.Recv()
	end := c.tr.now()
	// Endpoints sit in Recv between ops too, while the harness restores
	// and verifies; only the part of the wait inside an op counts.
	if err == nil && c.tr.curOp.Load() >= 0 {
		if s := c.tr.curStart.Load(); start < s {
			start = s
		}
		c.recv.calls.Add(1)
		c.recv.msgs.Add(1)
		c.recv.bytes.Add(int64(len(m.Data)))
		c.recv.ns.Add(end - start)
		c.tr.call("transport.Recv", start, end, c.node, len(m.Data))
	}
	return m, err
}

// linkSnapshot is a plain copy of a linkStats.
type linkSnapshot struct{ calls, msgs, bytes, ns int64 }

func (l *linkStats) snapshot() linkSnapshot {
	return linkSnapshot{l.calls.Load(), l.msgs.Load(), l.bytes.Load(), l.ns.Load()}
}
