package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestNetworkDelivery(t *testing.T) {
	nw := NewNetwork(3, 16)
	a, b := nw.Conn(0), nw.Conn(1)
	if err := a.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || string(m.Data) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestNetworkSendCopies(t *testing.T) {
	nw := NewNetwork(2, 4)
	a, b := nw.Conn(0), nw.Conn(1)
	buf := []byte("abc")
	if err := a.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	m, _ := b.Recv()
	if string(m.Data) != "abc" {
		t.Fatalf("Send did not copy: %q", m.Data)
	}
}

func TestNetworkUnknownPeer(t *testing.T) {
	nw := NewNetwork(1, 4)
	if err := nw.Conn(0).Send(9, nil); err == nil {
		t.Fatal("expected error for unknown peer")
	}
}

func TestNetworkOrderingPerSender(t *testing.T) {
	nw := NewNetwork(2, 128)
	a, b := nw.Conn(0), nw.Conn(1)
	for i := 0; i < 100; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Data[0] != byte(i) {
			t.Fatalf("out of order: got %d want %d", m.Data[0], i)
		}
	}
}

func TestNetworkCloseUnblocksRecv(t *testing.T) {
	nw := NewNetwork(1, 4)
	c := nw.Conn(0)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestNetworkAddNode(t *testing.T) {
	nw := NewNetwork(1, 4)
	agg := nw.AddNode(100)
	if err := nw.Conn(0).Send(100, []byte("x")); err != nil {
		t.Fatal(err)
	}
	m, err := agg.Recv()
	if err != nil || string(m.Data) != "x" {
		t.Fatalf("m=%v err=%v", m, err)
	}
}

func TestTCPTransport(t *testing.T) {
	// Bind two endpoints on ephemeral ports, then cross-register.
	t0, err := NewTCP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := NewTCP(1, map[int]string{1: "127.0.0.1:0", 0: t0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	if err := t0.RegisterPeer(1, t1.Addr()); err != nil {
		t.Fatal(err)
	}

	if err := t0.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	m, err := t1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || string(m.Data) != "ping" {
		t.Fatalf("got %+v", m)
	}
	if err := t1.Send(0, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	m, err = t0.Recv()
	if err != nil || string(m.Data) != "pong" || m.From != 1 {
		t.Fatalf("m=%+v err=%v", m, err)
	}
}

func TestTCPManyMessages(t *testing.T) {
	t0, err := NewTCP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := NewTCP(1, map[int]string{1: "127.0.0.1:0", 0: t0.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := t1.Send(0, []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := t0.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%d", i); string(m.Data) != want {
			t.Fatalf("got %q want %q", m.Data, want)
		}
	}
	wg.Wait()
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	t0, err := NewTCP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := t0.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	t0.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestUDPTransport(t *testing.T) {
	u0, err := NewUDP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer u0.Close()
	u1, err := NewUDP(1, map[int]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer u1.Close()
	if err := u0.RegisterPeer(1, u1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := u1.RegisterPeer(0, u0.Addr()); err != nil {
		t.Fatal(err)
	}

	if err := u0.Send(1, []byte("dgram")); err != nil {
		t.Fatal(err)
	}
	m, err := u1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 0 || string(m.Data) != "dgram" {
		t.Fatalf("got %+v", m)
	}
}

// TestUDPWildcardHostBook covers the CLI's ":port" address-book form: a
// peer entry with no host can only mean "this machine" and must work for
// Send and SendAll alike, with correct sender attribution (the datagram
// arrives from 127.0.0.1, not the wildcard).
func TestUDPWildcardHostBook(t *testing.T) {
	// One subtest per UDP send engine; the scalar one-datagram-per-call
	// engine is the only one.
	t.Run("scalar", func(t *testing.T) {
		u0, err := NewUDP(0, map[int]string{0: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer u0.Close()
		u1, err := NewUDP(1, map[int]string{1: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer u1.Close()
		port := func(u *UDP) string {
			_, p, err := net.SplitHostPort(u.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		// Register each peer under the wildcard-host form.
		if err := u0.RegisterPeer(1, ":"+port(u1)); err != nil {
			t.Fatal(err)
		}
		if err := u1.RegisterPeer(0, ":"+port(u0)); err != nil {
			t.Fatal(err)
		}
		if err := SendAll(u0, []Outgoing{{To: 1, Data: pooled("a")}, {To: 1, Data: pooled("b")}}); err != nil {
			t.Fatal(err)
		}
		if err := u0.Send(1, []byte("c")); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"a", "b", "c"} {
			m, err := u1.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.From != 0 || string(m.Data) != want {
				t.Fatalf("got From=%d Data=%q, want From=0 Data=%q", m.From, m.Data, want)
			}
			PutBuf(m.Data)
		}
	})
}

func TestUDPOversizeDatagram(t *testing.T) {
	u0, err := NewUDP(0, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer u0.Close()
	if err := u0.Send(1, make([]byte, MaxDatagram+1)); err == nil {
		t.Fatal("expected error for oversize datagram")
	}
}

func TestUDPCloseUnblocksRecv(t *testing.T) {
	u0, err := NewUDP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := u0.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	u0.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestUDPUnknownSender(t *testing.T) {
	u0, err := NewUDP(0, map[int]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer u0.Close()
	// A stranger socket sends a datagram; it must be attributed id -1.
	stranger, err := NewUDP(9, map[int]string{9: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if err := stranger.RegisterPeer(0, u0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := stranger.Send(0, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m, err := u0.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != -1 {
		t.Fatalf("unknown sender attributed id %d", m.From)
	}
}
