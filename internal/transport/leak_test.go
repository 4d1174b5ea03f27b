package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/obs"
)

// TestNetworkCloseReclaimsQueuedBuffers verifies the drain-on-close
// protocol: messages sitting undelivered in a node's inbox must be
// returned to the buffer pool when the node's endpoint closes, so a
// quiesced network has a balanced get/put tally.
func TestNetworkCloseReclaimsQueuedBuffers(t *testing.T) {
	audit := obs.StartLeakAudit()
	nw := NewNetwork(2, 64)
	a, b := nw.Conn(0), nw.Conn(1)
	for i := 0; i < 10; i++ {
		if err := a.Send(1, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 never calls Recv; its inbox holds 10 pooled buffers.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatalf("buffers leaked after close: %v", obs.LeaksErr(leaks))
	}
}

// TestNetworkSendAfterPeerClose checks that sending to a closed peer is
// a silent best-effort drop (datagram semantics at teardown) that does
// not leak the copied buffer.
func TestNetworkSendAfterPeerClose(t *testing.T) {
	audit := obs.StartLeakAudit()
	nw := NewNetwork(2, 4)
	a, b := nw.Conn(0), nw.Conn(1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // more than queue cap: must not block either
		if err := a.Send(1, []byte{9}); err != nil {
			t.Fatalf("send to closed peer: %v", err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatalf("buffers leaked: %v", obs.LeaksErr(leaks))
	}
}

// TestNetworkConcurrentSendClose races many senders against the
// receiver's Close. Whatever interleaving occurs, every pooled buffer
// must come back: delivered ones via the receiver's PutBuf, undelivered
// ones via the close-time drain.
func TestNetworkConcurrentSendClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		audit := obs.StartLeakAudit()
		nw := NewNetwork(4, 8)
		recv := nw.Conn(3)
		var wg sync.WaitGroup
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := nw.Conn(id)
				for i := 0; i < 50; i++ {
					_ = c.Send(3, []byte{byte(i)})
				}
				_ = c.Close()
			}(s)
		}
		// Consume a few, then vanish mid-stream.
		for i := 0; i < 5; i++ {
			m, err := recv.Recv()
			if err != nil {
				break
			}
			PutBuf(m.Data)
		}
		if err := recv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// A Recv racing Close may have drained one last message whose
		// buffer it owns; none remain un-accounted after Close returns.
		if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
			t.Fatalf("round %d leaked: %v", round, obs.LeaksErr(leaks))
		}
	}
}

// pooled returns a GetBuf buffer holding s: what a SendAll caller gives
// away.
func pooled(s string) []byte {
	b := GetBuf(len(s))
	copy(b, s)
	return b
}

// recvAll receives n messages, releases them, and returns their contents
// in arrival order.
func recvAll(t *testing.T, c Conn, n int) []string {
	t.Helper()
	var got []string
	for i := 0; i < n; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d of %d: %v", i+1, n, err)
		}
		got = append(got, string(m.Data))
		PutBuf(m.Data)
	}
	return got
}

// sendOnly hides a Conn's SendBatch, leaving SendAll its Send loop.
type sendOnly struct{ Conn }

// TestSendAllOwnsBuffers pins the giving-away half of the ownership rule
// on every fabric: whatever happens to a message handed to SendAll —
// delivered, refused, dropped, duplicated, held back, stranded by a close
// — its buffer is back in the pool once the fabric is torn down, and the
// caller's Outgoing values still read as they did.
func TestSendAllOwnsBuffers(t *testing.T) {
	chanPair := func() (Conn, Conn) {
		nw := NewNetwork(2, 16)
		return nw.Conn(0), nw.Conn(1)
	}
	check := func(t *testing.T, run func(t *testing.T)) {
		audit := obs.StartLeakAudit()
		run(t)
		if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
			t.Fatalf("buffers leaked: %v", obs.LeaksErr(leaks))
		}
	}
	equal := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("received %q, want %q", got, want)
		}
	}

	t.Run("chan", func(t *testing.T) {
		check(t, func(t *testing.T) {
			a, b := chanPair()
			msgs := []Outgoing{{To: 1, Data: pooled("x")}, {To: 1, Data: pooled("yy")}, {To: 1, Data: pooled("z")}}
			sent := &msgs[0].Data[0]
			if err := SendAll(a, msgs); err != nil {
				t.Fatal(err)
			}
			if msgs[1].To != 1 || len(msgs[1].Data) != 2 {
				t.Fatalf("SendBatch rewrote the caller's Outgoing: %+v", msgs[1])
			}
			m, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if &m.Data[0] != sent {
				t.Fatal("channel fabric copied an owned buffer instead of enqueueing it")
			}
			PutBuf(m.Data)
			equal(t, recvAll(t, b, 1), "yy")
			// "z" stays queued for the close-time drain; an unknown peer
			// mid-batch must release the whole tail; a closed peer eats
			// its messages.
			err = SendAll(a, []Outgoing{{To: 1, Data: pooled("q")}, {To: 7, Data: pooled("r")}, {To: 1, Data: pooled("s")}})
			if !errors.Is(err, ErrUnknownPeer) {
				t.Fatalf("unknown peer: %v", err)
			}
			b.Close()
			if err := SendAll(a, []Outgoing{{To: 1, Data: pooled("late")}}); err != nil {
				t.Fatal(err)
			}
			a.Close()
		})
	})

	t.Run("send-loop", func(t *testing.T) {
		check(t, func(t *testing.T) {
			a, b := chanPair()
			if err := SendAll(sendOnly{a}, []Outgoing{{To: 1, Data: pooled("x")}, {To: 1, Data: pooled("y")}}); err != nil {
				t.Fatal(err)
			}
			equal(t, recvAll(t, b, 2), "x", "y")
			err := SendAll(sendOnly{a}, []Outgoing{{To: 7, Data: pooled("r")}, {To: 1, Data: pooled("s")}})
			if !errors.Is(err, ErrUnknownPeer) {
				t.Fatalf("unknown peer: %v", err)
			}
			a.Close()
			b.Close()
		})
	})

	t.Run("udp", func(t *testing.T) {
		check(t, func(t *testing.T) {
			u0, err := NewUDP(0, map[int]string{0: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			u1, err := NewUDP(1, map[int]string{1: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			if err := u0.RegisterPeer(1, u1.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := SendAll(u0, []Outgoing{{To: 1, Data: pooled("x")}, {To: 1, Data: pooled("y")}}); err != nil {
				t.Fatal(err)
			}
			equal(t, recvAll(t, u1, 2), "x", "y")
			err = SendAll(u0, []Outgoing{{To: 1, Data: pooled("q")}, {To: 7, Data: pooled("r")}, {To: 1, Data: pooled("s")}})
			if !errors.Is(err, ErrUnknownPeer) {
				t.Fatalf("unknown peer: %v", err)
			}
			equal(t, recvAll(t, u1, 1), "q")
			u0.Close()
			if err := SendAll(u0, []Outgoing{{To: 1, Data: pooled("late")}}); err == nil {
				t.Fatal("send on a closed socket succeeded")
			}
			u1.Close()
		})
	})

	chaos := func(ph Phase) (*ChaosConn, Conn) {
		a, b := chanPair()
		return NewChaosFabric(Scenario{Seed: 1, Phases: []Phase{ph}}).Wrap(a), b
	}
	t.Run("chaos/drop", func(t *testing.T) {
		check(t, func(t *testing.T) {
			a, b := chaos(Phase{Packets: 2, Drop: 1})
			if err := SendAll(a, []Outgoing{{To: 1, Data: pooled("x")}, {To: 1, Data: pooled("y")}, {To: 1, Data: pooled("z")}}); err != nil {
				t.Fatal(err)
			}
			equal(t, recvAll(t, b, 1), "z")
			a.Close()
			b.Close()
		})
	})
	t.Run("chaos/duplicate", func(t *testing.T) {
		check(t, func(t *testing.T) {
			a, b := chaos(Phase{Dup: 1})
			if err := SendAll(a, []Outgoing{{To: 1, Data: pooled("x")}}); err != nil {
				t.Fatal(err)
			}
			m1, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			m2, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(m1.Data) != "x" || string(m2.Data) != "x" {
				t.Fatalf("received %q and %q", m1.Data, m2.Data)
			}
			if &m1.Data[0] == &m2.Data[0] {
				t.Fatal("a duplicate shares its original's buffer: two receivers would release it twice")
			}
			PutBuf(m1.Data)
			PutBuf(m2.Data)
			a.Close()
			b.Close()
		})
	})
	t.Run("chaos/hold-and-reorder", func(t *testing.T) {
		check(t, func(t *testing.T) {
			a, b := chaos(Phase{Packets: 1, Reorder: 1})
			if err := SendAll(a, []Outgoing{{To: 1, Data: pooled("x")}, {To: 1, Data: pooled("y")}}); err != nil {
				t.Fatal(err)
			}
			equal(t, recvAll(t, b, 2), "y", "x")
			a.Close()
			b.Close()
		})
	})
	t.Run("chaos/held-at-close", func(t *testing.T) {
		check(t, func(t *testing.T) {
			// One message each way of entering the hold: given away in a
			// batch, and borrowed by Send. Neither link sees a second
			// message, so both are still held when the endpoint closes.
			a, b := chaos(Phase{Reorder: 1, ReorderSpan: 8})
			if err := SendAll(a, []Outgoing{{To: 1, Data: pooled("x")}}); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(0, []byte("y")); err != nil {
				t.Fatal(err)
			}
			a.Close()
			b.Close()
		})
	})
}

// deadAddr returns a loopback address guaranteed to refuse connections:
// a port that was just bound and released.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPDialContextCancel verifies that Close aborts an in-progress
// dial retry loop promptly.
func TestTCPDialContextCancel(t *testing.T) {
	tr, err := NewTCP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Refused dials fail instantly, so the retry loop spends its time in
	// the waits between attempts; Close must interrupt those too.
	if err := tr.RegisterPeer(1, deadAddr(t)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- tr.Send(1, []byte("x")) }()
	time.Sleep(20 * time.Millisecond)
	tr.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("cancelled dial reported success")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled dial did not return")
	}
}

// TestTCPCloseDrainsRecvQueue leaves messages unconsumed in the TCP
// receive queue and verifies Close returns their buffers to the pool.
func TestTCPCloseDrainsRecvQueue(t *testing.T) {
	audit := obs.StartLeakAudit()
	a, err := NewTCP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(1, map[int]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterPeer(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := a.Send(1, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Receive one to prove delivery, leave the rest queued.
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	PutBuf(m.Data)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatalf("TCP close leaked buffers: %v", obs.LeaksErr(leaks))
	}
}

// TestPoolBalanceCounts pins the PoolBalance contract: every GetBuf and
// PutBuf call is tallied, including out-of-class sizes.
func TestPoolBalanceCounts(t *testing.T) {
	g0, p0 := PoolBalance()
	b1 := GetBuf(100)
	b2 := GetBuf(1 << 20) // oversize: unpooled but still counted
	PutBuf(b1)
	PutBuf(b2)
	g1, p1 := PoolBalance()
	if g1-g0 != 2 || p1-p0 != 2 {
		t.Fatalf("balance deltas: gets %d puts %d", g1-g0, p1-p0)
	}
	if !errors.Is(obs.LeaksErr([]obs.PoolBalance{{Name: "x", Gets: 2, Puts: 1}}), obs.ErrPoolLeak) {
		t.Fatal("LeaksErr must wrap ErrPoolLeak")
	}
}
