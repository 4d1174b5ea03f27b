// Package transport abstracts the message fabrics OmniReduce runs over.
//
// The paper implements two data paths: DPDK/UDP (unreliable datagrams,
// recovered by Algorithm 2) and RDMA RoCE in Reliable Connected mode
// (at-most-once, in-order, reliable messages). This package provides the
// Go equivalents:
//
//   - an in-process channel transport (reliable and ordered, the default
//     RC stand-in and the fabric used by tests and examples),
//   - a TCP message transport (reliable and ordered across processes),
//   - a UDP datagram transport (unreliable, exercising loss recovery), and
//   - a seeded chaos fabric (ChaosFabric) that wraps any transport and
//     injects loss, duplication, reordering, delay and partitions.
//
// All transports move opaque []byte messages between small-integer node
// IDs; the wire package defines what is inside the messages.
package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Message is one received datagram or message.
type Message struct {
	From int
	Data []byte
}

// Conn is one node's endpoint in a message fabric. Implementations must
// allow concurrent Send calls; Recv is typically called from one receive
// loop but implementations must tolerate concurrent callers.
//
// Ownership: every buffer on the datapath is born in GetBuf and dies in
// PutBuf, and has exactly one owner in between.
//
//   - Send borrows. It copies or transmits data before returning and the
//     caller keeps the buffer, pooled or not. Control, view and checkpoint
//     traffic, and anything that sends one buffer to several peers, goes
//     this way.
//   - SendAll gives away. See Outgoing.
//   - Recv hands over. The returned Message.Data came from GetBuf and now
//     belongs to the caller, who passes it on or releases it with PutBuf.
//     Whatever was decoded from it as a view (wire.DecodePacketView) is
//     valid exactly until that release.
type Conn interface {
	// Send delivers data to node `to` (best effort for datagram fabrics).
	Send(to int, data []byte) error
	// Recv blocks until a message arrives or the connection closes.
	Recv() (Message, error)
	// LocalID returns this endpoint's node ID.
	LocalID() int
	// Close releases the endpoint; pending and future Recv calls return
	// ErrClosed.
	Close() error
}

// ErrClosed is returned by Recv and Send after Close.
var ErrClosed = errors.New("transport: connection closed")

// Outgoing is one queued outbound message for batched transmission.
//
// Ownership: Data is a whole GetBuf buffer, used by no other entry, and
// passing it to SendAll (or SendBatch) gives it away. The transport either
// hands it to the receiver as it is or transmits it and calls PutBuf, on
// every path including errors, so the caller must not read, reuse or
// release the bytes afterwards. The Outgoing values themselves stay the
// caller's and are left as they were: To and len(Data) still read the same
// after the call.
type Outgoing struct {
	To   int
	Data []byte
}

// BatchSender is implemented by transports that can hand several
// messages to the fabric in one operation — the channel fabric's enqueue
// without a copy, and wrappers that forward to it. Messages are
// transmitted in slice order; an error may leave a
// prefix of the batch sent (datagram semantics: the unsent tail is
// indistinguishable from in-flight loss).
//
// SendBatch takes ownership of every msgs[i].Data exactly as SendAll does
// and must not write to msgs. A wrapper that forwards to its inner Conn
// forwards through SendAll, which keeps it on the inner transport's fast
// path and passes the ownership along.
type BatchSender interface {
	SendBatch(msgs []Outgoing) error
}

// SendAll transmits msgs over conn in order and takes ownership of their
// buffers (see Outgoing): in one batched operation when the transport
// supports it, and one Send plus PutBuf per message otherwise. The two
// paths are semantically identical — same order, same best-effort
// delivery, every buffer released or delivered — so callers batch
// unconditionally and the fabric decides what that costs.
func SendAll(conn Conn, msgs []Outgoing) error {
	if len(msgs) == 0 {
		return nil
	}
	if bs, ok := conn.(BatchSender); ok {
		return bs.SendBatch(msgs)
	}
	for i, m := range msgs {
		err := conn.Send(m.To, m.Data)
		PutBuf(m.Data)
		if err != nil {
			putAll(msgs[i+1:])
			return err
		}
	}
	return nil
}

// putAll releases the buffers of messages that will not be sent.
func putAll(msgs []Outgoing) {
	for _, m := range msgs {
		PutBuf(m.Data)
	}
}

// ErrUnknownPeer is returned by Send for an unregistered destination.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// Network is an in-process fabric connecting a fixed set of nodes through
// buffered channels. Delivery is reliable and per-sender ordered, matching
// RDMA RC semantics. The zero value is not usable; call NewNetwork.
type Network struct {
	// boxes is replaced, never written in place, when AddNode registers a
	// node, so Send finds its destination with one atomic load; mu orders
	// the writers.
	mu    sync.Mutex
	boxes atomic.Pointer[map[int]*box]
	cap   int
}

// box is one node's inbox. closed/inflight implement the drain-on-close
// protocol: once a node's endpoint closes, its inbox is marked closed,
// new sends are dropped (the receiver is gone — datagram semantics at
// teardown), and every queued message's pooled buffer is returned, so a
// quiesced network holds no buffers. inflight counts senders that are
// past the closed check but have not finished enqueueing, letting the
// drain loop wait them out instead of racing them.
type box struct {
	ch       chan Message
	closed   atomic.Bool
	inflight atomic.Int64
}

// NewNetwork creates a fabric with nodes 0..n-1, each with a receive queue
// of queueCap messages (Send blocks when the destination queue is full,
// providing natural backpressure).
func NewNetwork(n, queueCap int) *Network {
	nw := &Network{cap: queueCap}
	boxes := make(map[int]*box, n)
	for i := 0; i < n; i++ {
		boxes[i] = &box{ch: make(chan Message, queueCap)}
	}
	nw.boxes.Store(&boxes)
	return nw
}

// AddNode registers an additional node ID (e.g. aggregators numbered after
// the workers) and returns its Conn.
func (nw *Network) AddNode(id int) Conn {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	old := *nw.boxes.Load()
	b := old[id]
	if b == nil {
		b = &box{ch: make(chan Message, nw.cap)}
		boxes := make(map[int]*box, len(old)+1)
		for k, v := range old {
			boxes[k] = v
		}
		boxes[id] = b
		nw.boxes.Store(&boxes)
	}
	return newChanConn(nw, id, b)
}

// Conn returns node id's endpoint. The node must exist.
func (nw *Network) Conn(id int) Conn {
	b := nw.box(id)
	if b == nil {
		panic(fmt.Sprintf("transport: unknown node %d", id))
	}
	return newChanConn(nw, id, b)
}

func (nw *Network) box(id int) *box { return (*nw.boxes.Load())[id] }

// drain marks the inbox closed and empties it, recycling every queued
// buffer. It waits out senders already committed to enqueueing (inflight),
// so when it returns no pooled buffer remains in the box and none can
// arrive later.
func (b *box) drain() {
	if b.closed.Swap(true) {
		return
	}
	for {
		select {
		case m := <-b.ch:
			PutBuf(m.Data)
			continue
		default:
		}
		if b.inflight.Load() == 0 && len(b.ch) == 0 {
			return
		}
		runtime.Gosched()
	}
}

type chanConn struct {
	nw        *Network
	id        int
	in        *box // this node's inbox
	closed    chan struct{}
	closeOnce sync.Once
}

func newChanConn(nw *Network, id int, in *box) *chanConn {
	return &chanConn{nw: nw, id: id, in: in, closed: make(chan struct{})}
}

// Send copies data into a pooled buffer and enqueues the copy.
func (c *chanConn) Send(to int, data []byte) error {
	b := c.nw.box(to)
	if b == nil {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, to)
	}
	buf := GetBuf(len(data))
	copy(buf, data)
	return c.enqueue(b, buf)
}

// SendBatch enqueues the caller's buffers as they are: the receiver's
// PutBuf releases what the sender's GetBuf allocated, and no byte is
// copied in between.
func (c *chanConn) SendBatch(msgs []Outgoing) error {
	for i, m := range msgs {
		b := c.nw.box(m.To)
		if b == nil {
			putAll(msgs[i:])
			return fmt.Errorf("%w: %d", ErrUnknownPeer, m.To)
		}
		if err := c.enqueue(b, m.Data); err != nil {
			putAll(msgs[i+1:])
			return err
		}
	}
	return nil
}

// enqueue delivers the pooled buffer buf to b, or releases it.
func (c *chanConn) enqueue(b *box, buf []byte) error {
	// Commit to the enqueue (inflight) before checking closed: the drain
	// loop waits for inflight to reach zero, so a send that slips past a
	// concurrent close is either dropped here or drained there — never
	// stranded with its buffer.
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if b.closed.Load() {
		// The receiver is gone. Per-message best effort at teardown:
		// recycle and report success, like a datagram dying in flight.
		PutBuf(buf)
		return nil
	}
	m := Message{From: c.id, Data: buf}
	// A queue with room takes the message without entering select.
	select {
	case b.ch <- m:
		return nil
	default:
	}
	select {
	case b.ch <- m:
		return nil
	case <-c.closed:
		PutBuf(buf)
		return ErrClosed
	}
}

func (c *chanConn) Recv() (Message, error) {
	// A waiting message is taken without entering select — also after
	// Close, so one that raced with it is still delivered.
	select {
	case m := <-c.in.ch:
		return m, nil
	default:
	}
	select {
	case m := <-c.in.ch:
		return m, nil
	case <-c.closed:
		return Message{}, ErrClosed
	}
}

func (c *chanConn) LocalID() int { return c.id }

func (c *chanConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		// Drain this node's inbox so no pooled buffer is stranded in a
		// queue nobody will read. Sends targeting this node from now on
		// are dropped.
		c.in.drain()
	})
	return nil
}
