package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Connection establishment: peers may come up in any order, so first
// contact retries — up to dialAttempts dials of at most dialTimeout each,
// dialSpacing apart — until it connects or Close cancels it.
const (
	dialTimeout  = 2 * time.Second
	dialAttempts = 50
	dialSpacing  = 100 * time.Millisecond
)

// TCP is a reliable message transport over a full mesh of TCP
// connections, the cross-process stand-in for the paper's RDMA RC mode.
// Messages are length-prefixed (uint32) frames; each node dials every
// peer once and announces its ID in an 8-byte hello frame.
type TCP struct {
	id       int
	addrs    map[int]string
	ln       net.Listener
	recvCh   chan Message
	mu       sync.Mutex
	outbound map[int]*tcpPeer
	dialing  map[int]chan struct{} // in-progress dials, keyed by peer
	inbound  map[net.Conn]struct{}
	// ctx is cancelled by Close, which ends every dial, wait and loop.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

var _ Conn = (*TCP)(nil)

type tcpPeer struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  net.Conn
}

// MaxFrame bounds accepted message sizes to catch stream corruption.
const MaxFrame = 64 << 20

// NewTCP creates a TCP endpoint for node id listening on addrs[id]. It
// returns once the listener is active; connections to peers are
// established lazily on first Send and by inbound dials.
func NewTCP(id int, addrs map[int]string) (*TCP, error) {
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	t := &TCP{
		id:       id,
		ln:       ln,
		recvCh:   make(chan Message, 1024),
		outbound: make(map[int]*tcpPeer),
		dialing:  make(map[int]chan struct{}),
		inbound:  make(map[net.Conn]struct{}),
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	t.addrs = make(map[int]string, len(addrs))
	for id, a := range addrs {
		t.addrs[id] = a
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c, -1)
	}
}

// readLoop reads frames from one connection. For accepted connections
// (from < 0) the first 8 bytes are the peer's hello announcing its ID,
// and the connection is adopted as the reply path to that peer if no
// outbound connection exists yet — a server (e.g. an aggregator) can then
// answer workers it has no dial address for. For dialed connections the
// peer ID is already known and no hello is expected.
func (t *TCP) readLoop(c net.Conn, from int) {
	defer t.wg.Done()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
	}()
	r := bufio.NewReaderSize(c, 1<<16)
	if from < 0 {
		var hello [8]byte
		if _, err := io.ReadFull(r, hello[:]); err != nil {
			return
		}
		from = int(binary.LittleEndian.Uint64(hello[:]))
		t.mu.Lock()
		if _, ok := t.outbound[from]; !ok {
			t.outbound[from] = &tcpPeer{w: bufio.NewWriterSize(c, 1<<16), c: c}
		}
		t.mu.Unlock()
	}
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > MaxFrame {
			return
		}
		buf := GetBuf(int(n))
		if _, err := io.ReadFull(r, buf); err != nil {
			PutBuf(buf)
			return
		}
		select {
		case t.recvCh <- Message{From: from, Data: buf}:
		case <-t.ctx.Done():
			PutBuf(buf)
			return
		}
	}
}

// Send frames and writes data to the peer, dialing on first use.
func (t *TCP) Send(to int, data []byte) error {
	select {
	case <-t.ctx.Done():
		return ErrClosed
	default:
	}
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if _, err := p.w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := p.w.Write(data); err != nil {
		return err
	}
	return p.w.Flush()
}

func (t *TCP) peer(to int) (*tcpPeer, error) {
	for {
		t.mu.Lock()
		if p, ok := t.outbound[to]; ok {
			t.mu.Unlock()
			return p, nil
		}
		addr, ok := t.addrs[to]
		if !ok {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, to)
		}
		if wait, busy := t.dialing[to]; busy {
			// Another goroutine is dialing this peer; wait for it rather
			// than racing a second connection (and rather than holding
			// t.mu across the dial, which would stall sends to every
			// other peer for the full retry window).
			t.mu.Unlock()
			select {
			case <-wait:
			case <-t.ctx.Done():
				return nil, ErrClosed
			}
			continue
		}
		wait := make(chan struct{})
		t.dialing[to] = wait
		t.mu.Unlock()

		p, err := t.dialPeer(to, addr)

		t.mu.Lock()
		delete(t.dialing, to)
		close(wait)
		if err != nil {
			t.mu.Unlock()
			return nil, err
		}
		if existing, ok := t.outbound[to]; ok {
			// An inbound hello installed a reply path while we dialed;
			// prefer it and discard our connection.
			t.mu.Unlock()
			p.c.Close()
			return existing, nil
		}
		select {
		case <-t.ctx.Done():
			t.mu.Unlock()
			p.c.Close()
			return nil, ErrClosed
		default:
		}
		t.outbound[to] = p
		// Read replies arriving on this dialed connection (the remote end
		// may answer here rather than dialing back).
		t.inbound[p.c] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(p.c, to)
		return p, nil
	}
}

// dialPeer establishes and greets one outbound connection, retrying per
// the dial schedule above. It runs without t.mu held.
func (t *TCP) dialPeer(to int, addr string) (*tcpPeer, error) {
	c, err := t.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %d (%s): %w", to, addr, err)
	}
	var hello [8]byte
	binary.LittleEndian.PutUint64(hello[:], uint64(t.id))
	if _, err := c.Write(hello[:]); err != nil {
		c.Close()
		return nil, err
	}
	return &tcpPeer{w: bufio.NewWriterSize(c, 1<<16), c: c}, nil
}

// dial attempts addr up to dialAttempts times, dialSpacing apart; Close
// cancels it mid-dial or mid-wait.
func (t *TCP) dial(addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	var lastErr error
	for i := 0; i < dialAttempts; i++ {
		if i > 0 {
			timer := time.NewTimer(dialSpacing)
			select {
			case <-timer.C:
			case <-t.ctx.Done():
				timer.Stop()
				return nil, ErrClosed
			}
		}
		c, err := d.DialContext(t.ctx, "tcp", addr)
		if err == nil {
			return c, nil
		}
		if t.ctx.Err() != nil {
			return nil, ErrClosed
		}
		lastErr = err
	}
	return nil, lastErr
}

// RegisterPeer adds or updates a peer's dial address (used with ":0"
// setups where addresses are exchanged after binding, and on the re-dial
// path after a view change). The address is canonicalized like UDP book
// entries — a wildcard host registered after a rebind must not dial (and
// attribute) differently than one registered at construction.
func (t *TCP) RegisterPeer(id int, addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = CanonicalAddr(addr)
	return nil
}

// Recv returns the next inbound message.
func (t *TCP) Recv() (Message, error) {
	select {
	case m := <-t.recvCh:
		return m, nil
	case <-t.ctx.Done():
		select {
		case m := <-t.recvCh:
			return m, nil
		default:
		}
		return Message{}, ErrClosed
	}
}

// LocalID returns the node ID.
func (t *TCP) LocalID() int { return t.id }

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Close shuts the listener and all peer connections, then recycles any
// received-but-unconsumed message buffers so a closed endpoint holds no
// pooled memory.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.ctx.Err() != nil {
		t.mu.Unlock()
		return nil
	}
	t.cancel()
	err := t.ln.Close()
	for _, p := range t.outbound {
		p.c.Close()
	}
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	// All read loops have exited; nothing else writes recvCh. Drain what
	// no Recv caller will ever collect.
	for {
		select {
		case m := <-t.recvCh:
			PutBuf(m.Data)
		default:
			return err
		}
	}
}
