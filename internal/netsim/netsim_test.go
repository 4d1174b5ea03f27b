package netsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"omnireduce/internal/transport"
)

func TestSimOrdering(t *testing.T) {
	s := &Sim{}
	var order []int
	s.At(2, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(1, func() { order = append(order, 11) }) // same time: FIFO by seq
	end := s.Run()
	if end != 2 {
		t.Fatalf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimAfterAndNestedEvents(t *testing.T) {
	s := &Sim{}
	var times []float64
	s.At(1, func() {
		times = append(times, s.Now())
		s.After(0.5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 1.5 {
		t.Fatalf("times = %v", times)
	}
}

func TestSimPastClamped(t *testing.T) {
	s := &Sim{}
	s.At(5, func() {
		s.At(1, func() {
			if s.Now() != 5 {
				t.Errorf("past event ran at %v", s.Now())
			}
		})
	})
	s.Run()
}

func TestSendSerializationAndLatency(t *testing.T) {
	// 1 MB at 8 Mbps = 1 second serialization + 0.1 latency (transmission
	// and reception overlap: a single flow pays serialization once).
	n := NewNet(0.1, transport.Scenario{})
	a := n.AddNode(0, 8e6, 8e6)
	b := n.AddNode(1, 8e6, 8e6)
	var deliveredAt float64
	b.Handler = func(m Message) { deliveredAt = n.Sim.Now() }
	a.Send(1, 1e6, nil)
	n.Sim.Run()
	if math.Abs(deliveredAt-1.1) > 1e-9 {
		t.Fatalf("delivered at %v, want 1.1", deliveredAt)
	}
	if a.BytesSent != 1e6 || b.BytesRecvd != 1e6 || b.MsgsRecvd != 1 {
		t.Fatal("accounting wrong")
	}
}

func TestEgressQueueing(t *testing.T) {
	// Two back-to-back messages serialize on the sender's egress link.
	n := NewNet(0, transport.Scenario{})
	a := n.AddNode(0, 8e6, 8e6)
	b := n.AddNode(1, 8e6, Gbps(100)) // fast ingress isolates egress effect
	var times []float64
	b.Handler = func(m Message) { times = append(times, n.Sim.Now()) }
	a.Send(1, 1e6, nil)
	a.Send(1, 1e6, nil)
	n.Sim.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if math.Abs(times[0]-1.0008) > 1e-3 || math.Abs(times[1]-2.0016) > 1e-2 {
		t.Fatalf("times = %v", times)
	}
}

func TestIngressIncast(t *testing.T) {
	// Two senders to one receiver: ingress serializes, so the second
	// message lands ~1s after the first despite parallel sends.
	n := NewNet(0, transport.Scenario{})
	s1 := n.AddNode(0, 8e6, 8e6)
	s2 := n.AddNode(1, 8e6, 8e6)
	r := n.AddNode(2, 8e6, 8e6)
	var times []float64
	r.Handler = func(m Message) { times = append(times, n.Sim.Now()) }
	s1.Send(2, 1e6, nil)
	s2.Send(2, 1e6, nil)
	n.Sim.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if math.Abs(times[1]-times[0]-1.0) > 1e-6 {
		t.Fatalf("incast spacing = %v", times[1]-times[0])
	}
}

func TestCPUPerMessage(t *testing.T) {
	n := NewNet(0, transport.Scenario{})
	a := n.AddNode(0, Gbps(10), Gbps(10))
	b := n.AddNode(1, Gbps(10), Gbps(10))
	b.CPUPerMsg = 0.01
	var times []float64
	b.Handler = func(m Message) { times = append(times, n.Sim.Now()) }
	for i := 0; i < 3; i++ {
		a.Send(1, 100, nil)
	}
	n.Sim.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	// CPU serializes at 10ms per message.
	if d := times[2] - times[0]; math.Abs(d-0.02) > 1e-3 {
		t.Fatalf("cpu spacing = %v", d)
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() int64 {
		n := NewNet(0, transport.Scenario{Seed: 42, Phases: []transport.Phase{{Drop: 0.5}}})
		a := n.AddNode(0, Gbps(1), Gbps(1))
		b := n.AddNode(1, Gbps(1), Gbps(1))
		b.Handler = func(m Message) {}
		for i := 0; i < 1000; i++ {
			a.Send(1, 100, nil)
		}
		n.Sim.Run()
		c := n.Faults.Counts()
		if c.Sent != 1000 || c.Dropped+b.MsgsRecvd != 1000 {
			t.Fatalf("accounting mismatch: %d dropped + %d delivered != %d sent", c.Dropped, b.MsgsRecvd, c.Sent)
		}
		return b.MsgsRecvd
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("non-deterministic loss: %d vs %d", r1, r2)
	}
	if r1 < 400 || r1 > 600 {
		t.Fatalf("received %d of 1000 at 50%% loss", r1)
	}
}

func TestNewNetRefusesUnmodeledFaults(t *testing.T) {
	for field, ph := range map[string]transport.Phase{
		"Dup":     {Dup: 0.1},
		"Reorder": {Reorder: 0.1, ReorderSpan: 2},
		"Delay":   {Delay: time.Millisecond, DelayP: 0.5},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sets "+field) {
					t.Errorf("%s: panic %q does not name the field", field, msg)
				}
			}()
			NewNet(0, transport.Scenario{Phases: []transport.Phase{{Drop: 0.01}, ph}})
			t.Errorf("%s: NewNet accepted a scenario it cannot simulate", field)
		}()
	}
}

func TestCopyEngine(t *testing.T) {
	n := NewNet(0, transport.Scenario{})
	a := n.AddNode(0, Gbps(10), Gbps(10))
	a.CopyBW = 8e6 // 1 MB/s in bytes terms
	var doneAt []float64
	a.Copy(1e6, func() { doneAt = append(doneAt, n.Sim.Now()) })
	a.Copy(1e6, func() { doneAt = append(doneAt, n.Sim.Now()) })
	n.Sim.Run()
	if len(doneAt) != 2 || math.Abs(doneAt[0]-1) > 1e-9 || math.Abs(doneAt[1]-2) > 1e-9 {
		t.Fatalf("copy times = %v", doneAt)
	}
	// Instant copy when CopyBW == 0.
	b := n.AddNode(1, Gbps(10), Gbps(10))
	fired := false
	b.Copy(1e9, func() { fired = true })
	n.Sim.Run()
	if !fired {
		t.Fatal("instant copy did not fire")
	}
}

func TestGbps(t *testing.T) {
	if Gbps(10) != 1e10 {
		t.Fatal("Gbps wrong")
	}
}
