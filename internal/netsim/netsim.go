// Package netsim is a deterministic discrete-event network simulator used
// to regenerate the paper's evaluation figures at 10/100 Gbps scale in
// milliseconds of real time.
//
// The model is store-and-forward at message granularity: a message
// serializes on the sender's egress NIC (bytes*8/egress bandwidth), incurs
// the one-way latency α, queues FIFO on the receiver's ingress NIC
// (serializing at ingress bandwidth — this is what creates incast pressure
// on an aggregator), optionally queues on the receiver's CPU (a fixed
// per-message processing cost, standing in for DPDK packet handling), and
// is then delivered to the receiving node's handler. Virtual time is a
// float64 in seconds.
//
// Every message's fate comes from a transport.FaultModel — the decision
// function the live chaos fabric applies — keyed by the directed link and
// the message's position on it, so a scenario drops the same messages in
// virtual time as on a live fabric that offers each link the same
// sequence. The simulator models loss (uniform, Gilbert–Elliott bursts)
// and partitions; NewNet refuses a scenario that duplicates, reorders or
// delays.
//
// Nodes can also model a host staging copy (the GPU-to-host PCIe transfer
// of Appendix B, absent under GPU-direct RDMA) via the Copy method, which
// serializes on a per-node copy engine.
package netsim

import (
	"container/heap"
	"fmt"

	"omnireduce/internal/transport"
)

// Sim is the event loop. The zero value is ready to use.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap
}

type event struct {
	t   float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Run processes events until none remain, returning the final time.
func (s *Sim) Run() float64 {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.t
		e.fn()
	}
	return s.now
}

// Message is a simulated network message.
type Message struct {
	From, To int
	Bytes    float64
	Payload  interface{}
}

// Node is a simulated host with full-duplex NIC and optional CPU and copy
// engines.
type Node struct {
	ID        int
	EgressBW  float64 // bits per second
	IngressBW float64
	CPUPerMsg float64 // seconds of processing per received message
	CopyBW    float64 // staging copy bandwidth (bytes/sec *8 -> use bits), 0 = instant
	Handler   func(m Message)

	net         *Net
	egressBusy  float64
	ingressBusy float64
	cpuBusy     float64
	copyBusy    float64

	// Traffic accounting.
	BytesSent, BytesRecvd float64
	MsgsSent, MsgsRecvd   int64
}

// Net is a collection of nodes with uniform one-way latency whose
// messages meet the fates of one fault scenario.
type Net struct {
	Sim     *Sim
	Latency float64 // one-way seconds
	// Faults decides every message's fate and tallies the drops.
	Faults *transport.FaultModel
	nodes  map[int]*Node
}

// NewNet creates a network on a fresh simulator. It panics if a phase of
// faults sets Dup, Reorder or Delay, which the simulator does not model.
func NewNet(latency float64, faults transport.Scenario) *Net {
	for i, ph := range faults.Phases {
		field := ""
		switch {
		case ph.Dup != 0:
			field = "Dup"
		case ph.Reorder != 0:
			field = "Reorder"
		case ph.Delay != 0 || ph.DelayP != 0:
			field = "Delay"
		}
		if field != "" {
			panic(fmt.Sprintf("netsim: fault phase %d sets %s; the simulator models loss and partitions only", i, field))
		}
	}
	return &Net{
		Sim:     &Sim{},
		Latency: latency,
		Faults:  transport.NewFaultModel(faults),
		nodes:   make(map[int]*Node),
	}
}

// AddNode registers a node with the given NIC bandwidths (bits/second).
func (n *Net) AddNode(id int, egressBW, ingressBW float64) *Node {
	nd := &Node{ID: id, EgressBW: egressBW, IngressBW: ingressBW, net: n}
	n.nodes[id] = nd
	return nd
}

// Node returns a registered node.
func (n *Net) Node(id int) *Node { return n.nodes[id] }

// Send models the full path of one message from nd to the destination.
func (nd *Node) Send(to int, bytes float64, payload interface{}) {
	sim := nd.net.Sim
	dst := nd.net.nodes[to]
	if dst == nil {
		panic("netsim: send to unknown node")
	}
	nd.BytesSent += bytes
	nd.MsgsSent++
	if to == nd.ID {
		// Loopback: colocated components on the same host bypass the NIC
		// and the fault model; only the CPU cost applies.
		m := Message{From: nd.ID, To: to, Bytes: bytes, Payload: payload}
		deliver := sim.Now()
		if nd.CPUPerMsg > 0 {
			if nd.cpuBusy > deliver {
				deliver = nd.cpuBusy
			}
			deliver += nd.CPUPerMsg
			nd.cpuBusy = deliver
		}
		nd.MsgsRecvd++
		sim.At(deliver, func() {
			if nd.Handler != nil {
				nd.Handler(m)
			}
		})
		return
	}
	// Egress serialization.
	start := sim.Now()
	if nd.egressBusy > start {
		start = nd.egressBusy
	}
	txEnd := start + bytes*8/nd.EgressBW
	nd.egressBusy = txEnd

	if nd.net.Faults.Next(nd.ID, to).Drop {
		return // dropped in flight
	}
	// The first bit arrives latency after transmission starts; the
	// receiver cannot finish before the sender does (txEnd + latency).
	firstBit := start + nd.net.Latency
	minEnd := txEnd + nd.net.Latency
	m := Message{From: nd.ID, To: to, Bytes: bytes, Payload: payload}
	sim.At(firstBit, func() { dst.receive(m, minEnd) })
}

// receive models ingress contention: the receiving NIC is a FIFO server
// at IngressBW, but a single flow pays serialization only once — its
// receive cannot complete before minEnd (the sender-side completion), and
// completes later only if the ingress link is busy with other flows.
func (nd *Node) receive(m Message, minEnd float64) {
	sim := nd.net.Sim
	start := sim.Now()
	if nd.ingressBusy > start {
		start = nd.ingressBusy
	}
	rxEnd := start + m.Bytes*8/nd.IngressBW
	if rxEnd < minEnd {
		rxEnd = minEnd
	}
	nd.ingressBusy = rxEnd
	// CPU processing.
	deliver := rxEnd
	if nd.CPUPerMsg > 0 {
		if nd.cpuBusy > deliver {
			deliver = nd.cpuBusy
		}
		deliver += nd.CPUPerMsg
		nd.cpuBusy = deliver
	}
	nd.BytesRecvd += m.Bytes
	nd.MsgsRecvd++
	sim.At(deliver, func() {
		if nd.Handler != nil {
			nd.Handler(m)
		}
	})
}

// Copy models a host staging copy (e.g. GPU->host over PCIe) of the given
// bytes, invoking fn when it completes. With CopyBW == 0 the copy is
// instantaneous (the GDR case).
func (nd *Node) Copy(bytes float64, fn func()) {
	sim := nd.net.Sim
	if nd.CopyBW == 0 {
		sim.After(0, fn)
		return
	}
	start := sim.Now()
	if nd.copyBusy > start {
		start = nd.copyBusy
	}
	end := start + bytes*8/nd.CopyBW
	nd.copyBusy = end
	sim.At(end, fn)
}

// Gbps converts gigabits/second to the simulator's bits/second unit.
func Gbps(g float64) float64 { return g * 1e9 }
