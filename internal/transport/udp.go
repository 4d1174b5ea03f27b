package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// UDP is an unreliable datagram transport, the stand-in for the paper's
// DPDK/UDP data path. Messages may be dropped, duplicated, or reordered by
// the network; OmniReduce's Algorithm 2 recovers from all three. Peers are
// identified by a static id->address book.
//
// On Linux the transport batches datagram I/O: Recv drains the socket up
// to 32 datagrams per recvmmsg syscall into pooled buffers, and SendBatch
// hands whole emit bursts to sendmmsg, so the per-packet syscall cost of
// the scalar path is amortized ~an order of magnitude. The portable path
// (non-Linux, or the portable_net build tag, or SetBatching(false)) is
// byte-identical on the wire: same datagrams, same order, one syscall
// each. See udpbatch_linux.go / udpbatch_fallback.go.
type UDP struct {
	id     int
	pc     *net.UDPConn
	peers  map[int]*net.UDPAddr
	byAddr map[string]int
	byAP   map[netip.AddrPort]int // batch-path sender attribution
	mu     sync.Mutex
	closed bool

	// Batched receive state: rxMu serializes batch reads and guards the
	// pending queue of already-received messages; the batcher's ring
	// buffers are released exactly once (rxDone) by whichever of Close or
	// a failing Recv gets there first.
	b         *udpBatcher
	rxMu      sync.Mutex
	rxPending []Message
	rxHead    int
	rxDone    bool
}

var _ Conn = (*UDP)(nil)
var _ BatchSender = (*UDP)(nil)

// MaxDatagram is the largest datagram the transport sends or receives.
// It comfortably covers a fused packet of 64 x 256 float32 blocks on a
// loopback interface (jumbo frames / local sockets).
const MaxDatagram = 128 << 10

// udpSocketBuf is the kernel socket buffer size requested for both
// directions. Batched bursts of up to 32 jumbo datagrams need headroom on
// loopback, where the socket buffer is the only "network" there is.
const udpSocketBuf = 8 << 20

// NewUDP binds addrs[id] and resolves all peer addresses.
func NewUDP(id int, addrs map[int]string) (*UDP, error) {
	local, err := net.ResolveUDPAddr("udp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addrs[id], err)
	}
	pc, err := net.ListenUDP("udp", local)
	if err != nil {
		return nil, fmt.Errorf("transport: bind %s: %w", addrs[id], err)
	}
	// Best effort: a bigger socket buffer absorbs batched bursts; the
	// protocol recovers from any loss either way.
	_ = pc.SetReadBuffer(udpSocketBuf)
	_ = pc.SetWriteBuffer(udpSocketBuf)
	u := &UDP{
		id:     id,
		pc:     pc,
		peers:  make(map[int]*net.UDPAddr),
		byAddr: make(map[string]int),
		byAP:   make(map[netip.AddrPort]int),
	}
	if batchIOAvailable {
		u.b = newUDPBatcher(u)
	}
	for pid, a := range addrs {
		if pid == id {
			// Record our actual bound address (supports ":0").
			u.byAddr[pc.LocalAddr().String()] = id
			continue
		}
		ra, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			pc.Close()
			return nil, fmt.Errorf("transport: resolve peer %d (%s): %w", pid, a, err)
		}
		u.registerResolved(pid, ra)
	}
	return u, nil
}

// registerResolved records one peer binding under u.mu-compatible state.
func (u *UDP) registerResolved(id int, ra *net.UDPAddr) {
	// A wildcard or empty host in a peer's book entry (":7410") can only
	// mean "this machine" — the kernel delivers datagrams sent to the
	// unspecified address locally. Canonicalize (shared helper, see
	// addr.go) so the batch path has a marshalable sockaddr and sender
	// attribution matches the source address datagrams actually arrive
	// with.
	ra = canonicalUDPAddr(ra)
	u.peers[id] = ra
	u.byAddr[ra.String()] = id
	if ap := ra.AddrPort(); ap.IsValid() {
		u.byAP[netip.AddrPortFrom(ap.Addr().Unmap().WithZone(""), ap.Port())] = id
		// The kernel reports senders on a dual-stack socket as
		// v4-mapped; Unmap on both sides canonicalizes.
	}
}

// RegisterPeer adds or updates a peer binding (used with ":0" setups where
// addresses are exchanged after binding).
func (u *UDP) RegisterPeer(id int, addr string) error {
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.registerResolved(id, ra)
	return nil
}

// SetBatching enables or disables the batched fast path at runtime; a
// no-op on builds without it. Call before any traffic flows (it takes
// the receive lock, so a Recv already blocked in a batch read would hold
// it off); returns u for chaining. The scalar and batched paths are
// wire-identical, so this is a test/diagnostic knob (the equivalence
// tier runs the same workload both ways), not a correctness one.
func (u *UDP) SetBatching(on bool) *UDP {
	u.rxMu.Lock()
	defer u.rxMu.Unlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	if !on {
		if u.b != nil {
			u.b.release()
		}
		u.b = nil
	} else if u.b == nil && batchIOAvailable {
		u.b = newUDPBatcher(u)
	}
	return u
}

// Batching reports whether the batched fast path is active.
func (u *UDP) Batching() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.b != nil
}

// Addr returns the bound local address.
func (u *UDP) Addr() string { return u.pc.LocalAddr().String() }

// Send transmits one datagram, best effort.
func (u *UDP) Send(to int, data []byte) error {
	u.mu.Lock()
	ra, ok := u.peers[to]
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, to)
	}
	if len(data) > MaxDatagram {
		return fmt.Errorf("transport: datagram too large (%d > %d)", len(data), MaxDatagram)
	}
	_, err := u.pc.WriteToUDP(data, ra)
	return err
}

// errUnknownPeerBatch adapts the unknown-peer error for the batch path.
func errUnknownPeerBatch(to int) error {
	return fmt.Errorf("%w: %d", ErrUnknownPeer, to)
}

// SendBatch transmits msgs in order: one sendmmsg per 32 datagrams on the
// fast path, a loop of scalar Sends otherwise. It owns every Data buffer
// (see Outgoing) and releases them all once the kernel has the datagrams,
// or has refused them.
func (u *UDP) SendBatch(msgs []Outgoing) error {
	defer putAll(msgs)
	// The batcher pointer is read under u.mu, never rxMu: a Recv blocked
	// inside a batch read holds rxMu for the duration, and sends must not
	// wait on receives.
	u.mu.Lock()
	b := u.b
	closed := u.closed
	u.mu.Unlock()
	if b == nil {
		for _, m := range msgs {
			if err := u.Send(m.To, m.Data); err != nil {
				return err
			}
		}
		return nil
	}
	if closed {
		return ErrClosed
	}
	for _, m := range msgs {
		if len(m.Data) > MaxDatagram {
			return fmt.Errorf("transport: datagram too large (%d > %d)", len(m.Data), MaxDatagram)
		}
	}
	return b.sendBatch(msgs, u.resolvePeer)
}

// resolvePeer marshals peer id's address into sa for the batch sender.
func (u *UDP) resolvePeer(id int, sa *rawSockaddr) bool {
	u.mu.Lock()
	ra, ok := u.peers[id]
	u.mu.Unlock()
	if !ok {
		return false
	}
	ap := ra.AddrPort()
	if !ap.IsValid() {
		return false
	}
	return sa.fill(ap)
}

// lookupSender attributes a batch-received datagram's source address.
func (u *UDP) lookupSender(ap netip.AddrPort) int {
	u.mu.Lock()
	id, ok := u.byAP[netip.AddrPortFrom(ap.Addr().Unmap().WithZone(""), ap.Port())]
	if !ok {
		// Fall back to the scalar path's string book (covers addresses
		// registered before netip plumbing existed, e.g. zone-carrying
		// v6 literals).
		id, ok = u.byAddr[net.UDPAddrFromAddrPort(ap).String()]
	}
	u.mu.Unlock()
	if !ok {
		return -1
	}
	return id
}

// Recv blocks for the next datagram. Datagrams from unknown senders are
// attributed id -1. The returned buffer comes from the transport buffer
// pool; recycle it with PutBuf when done.
//
// On the batched path one recvmmsg refills an internal queue with up to
// 32 datagrams; subsequent Recv calls drain the queue without touching
// the kernel.
func (u *UDP) Recv() (Message, error) {
	u.rxMu.Lock()
	if u.b == nil {
		u.rxMu.Unlock()
		return u.recvScalar()
	}
	for u.rxHead >= len(u.rxPending) {
		if u.rxDone {
			u.rxMu.Unlock()
			return Message{}, ErrClosed
		}
		u.rxPending = u.rxPending[:0]
		u.rxHead = 0
		if err := u.b.fill(&u.rxPending, u.lookupSender); err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed {
				// Terminal: release the ring here rather than waiting
				// for Close's drain (either side may get there first).
				u.drainLocked()
				u.rxMu.Unlock()
				return Message{}, ErrClosed
			}
			// Transient receive error: the ring stays armed for the next
			// Recv, matching the scalar path's per-call error semantics.
			u.rxMu.Unlock()
			return Message{}, err
		}
	}
	m := u.rxPending[u.rxHead]
	u.rxPending[u.rxHead] = Message{}
	u.rxHead++
	u.rxMu.Unlock()
	return m, nil
}

// recvScalar is the portable one-datagram-per-syscall receive path.
func (u *UDP) recvScalar() (Message, error) {
	buf := GetBuf(MaxDatagram)
	n, from, err := u.pc.ReadFromUDP(buf)
	if err != nil {
		PutBuf(buf)
		u.mu.Lock()
		closed := u.closed
		u.mu.Unlock()
		if closed {
			return Message{}, ErrClosed
		}
		return Message{}, err
	}
	u.mu.Lock()
	id, ok := u.byAddr[from.String()]
	u.mu.Unlock()
	if !ok {
		id = -1
	}
	return Message{From: id, Data: buf[:n]}, nil
}

// drainLocked releases every pooled buffer the batched receive path still
// holds: the batcher's ring and any received-but-undelivered pending
// messages. Idempotent; caller holds rxMu. After it runs the quiesced
// transport owns no pool buffers, which is what the leak audit asserts.
func (u *UDP) drainLocked() {
	if u.rxDone {
		return
	}
	u.rxDone = true
	if u.b != nil {
		u.b.release()
	}
	for _, m := range u.rxPending[u.rxHead:] {
		PutBuf(m.Data)
	}
	u.rxPending = nil
	u.rxHead = 0
}

// LocalID returns the node ID.
func (u *UDP) LocalID() int { return u.id }

// Close shuts the socket; blocked Recv calls return ErrClosed. Pooled
// buffers parked in the batched receive ring or pending queue are
// returned to the pool — closing the socket first unblocks any in-flight
// batch read, so acquiring rxMu here waits out the reader rather than
// deadlocking on it.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.pc.Close()
	u.rxMu.Lock()
	u.drainLocked()
	u.rxMu.Unlock()
	return err
}
