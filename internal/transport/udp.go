package transport

import (
	"fmt"
	"net"
	"sync"
)

// UDP is an unreliable datagram transport, the stand-in for the paper's
// DPDK/UDP data path. Messages may be dropped, duplicated, or reordered by
// the network; OmniReduce's Algorithm 2 recovers from all three. Peers are
// identified by a static id->address book.
//
// Every Send is one WriteToUDP and every Recv one ReadFromUDP. UDP does
// not implement BatchSender: SendAll reaches it through its Send-and-
// release loop.
type UDP struct {
	id     int
	pc     *net.UDPConn
	peers  map[int]*net.UDPAddr
	byAddr map[string]int
	mu     sync.Mutex
	closed bool
}

var _ Conn = (*UDP)(nil)

// MaxDatagram is the largest datagram the transport sends or receives:
// the largest UDP payload IPv4 carries (65 535 bytes less the 20-byte IP
// and 8-byte UDP headers), on loopback too. A fused data packet of 63 x
// 256 float32 blocks fits (65 292 bytes) and one of 64 does not (66 328);
// at half precision 64 fit. omnireduce.NewUDPWorker and NewUDPAggregator
// refuse a shape whose full packet does not, where the kernel would
// refuse every send of it.
const MaxDatagram = 65507

// udpSocketBuf is the kernel socket buffer size requested for both
// directions. A burst of jumbo datagrams needs headroom on loopback, where
// the socket buffer is the only "network" there is.
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
	// Best effort: a bigger socket buffer absorbs bursts; the protocol
	// recovers from any loss either way.
	_ = pc.SetReadBuffer(udpSocketBuf)
	_ = pc.SetWriteBuffer(udpSocketBuf)
	u := &UDP{
		id:     id,
		pc:     pc,
		peers:  make(map[int]*net.UDPAddr),
		byAddr: make(map[string]int),
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
	// addr.go) so sender attribution matches the source address datagrams
	// actually arrive with.
	ra = canonicalUDPAddr(ra)
	u.peers[id] = ra
	u.byAddr[ra.String()] = id
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

// Recv blocks for the next datagram. Datagrams from unknown senders are
// attributed id -1. The returned buffer comes from the transport buffer
// pool; recycle it with PutBuf when done.
func (u *UDP) Recv() (Message, error) {
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

// LocalID returns the node ID.
func (u *UDP) LocalID() int { return u.id }

// Close shuts the socket; blocked Recv calls return ErrClosed.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	return u.pc.Close()
}

// BatchingSupported reports false: UDP has one engine, one syscall per
// datagram.
//
// Deprecated: kept only for callers that still record it; always false.
func BatchingSupported() bool { return false }
