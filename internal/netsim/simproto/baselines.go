package simproto

import (
	"math"

	"omnireduce/internal/netsim"
	"omnireduce/internal/transport"
)

// This file models the comparison systems of §6.1 on the simulator. The
// sparse methods operate on element-level density D (they ship key-value
// pairs, 8 bytes per non-zero element); OmniReduce operates on block
// occupancy (see omni.go). Union densities after reduction follow either
// the i.i.d. model (1-(1-D)^N, matching the microbenchmarks' random
// tensors) or a caller-supplied union factor for profile-driven runs.

// ringMsg tags ring-step messages.
type ringMsg struct{ step int }

// SimRingAllReduce models the NCCL/Gloo default: reduce-scatter plus
// allgather, 2(N-1) steps of S/N bytes. Returns completion seconds.
func SimRingAllReduce(c Cluster, tensorBytes float64) float64 {
	N := c.Workers
	if N == 1 {
		return 0
	}
	n := netsim.NewNet(c.Latency, transport.Scenario{})
	nodes := make([]*netsim.Node, N)
	for w := 0; w < N; w++ {
		nodes[w] = n.AddNode(w, c.WorkerBW, c.WorkerBW)
		nodes[w].CPUPerMsg = c.CPUPerMsg
	}
	chunk := tensorBytes / float64(N)
	steps := 2 * (N - 1)
	finished := 0
	var finishedAt float64
	for w := 0; w < N; w++ {
		w := w
		right := (w + 1) % N
		nodes[w].Handler = func(m netsim.Message) {
			s := m.Payload.(ringMsg).step
			if s+1 < steps {
				nodes[w].Send(right, chunk, ringMsg{step: s + 1})
			}
			if s == steps-1 {
				finished++
				if finished == N {
					finishedAt = n.Sim.Now()
				}
			}
		}
	}
	for w := 0; w < N; w++ {
		nodes[w].Send((w+1)%N, chunk, ringMsg{step: 0})
	}
	n.Sim.Run()
	return finishedAt
}

// SimAGsparseAllReduce models PyTorch's AllGather-based sparse AllReduce:
// an N-1 step ring allgather of each rank's 2*D*S bytes of key-value
// pairs, followed by a local reduction (charged at ReduceBW bytes/sec,
// which the paper's microbenchmarks exclude by setting it to 0 = free).
func SimAGsparseAllReduce(c Cluster, tensorBytes, density, reduceBW float64) float64 {
	N := c.Workers
	kv := 2 * density * tensorBytes
	if N == 1 {
		return 0
	}
	n := netsim.NewNet(c.Latency, transport.Scenario{})
	nodes := make([]*netsim.Node, N)
	for w := 0; w < N; w++ {
		nodes[w] = n.AddNode(w, c.WorkerBW, c.WorkerBW)
		nodes[w].CPUPerMsg = c.CPUPerMsg
	}
	steps := N - 1
	finished := 0
	var finishedAt float64
	for w := 0; w < N; w++ {
		w := w
		right := (w + 1) % N
		nodes[w].Handler = func(m netsim.Message) {
			s := m.Payload.(ringMsg).step
			if s+1 < steps {
				nodes[w].Send(right, kv, ringMsg{step: s + 1})
			}
			if s == steps-1 {
				finished++
				if finished == N {
					finishedAt = n.Sim.Now()
				}
			}
		}
	}
	for w := 0; w < N; w++ {
		nodes[w].Send((w+1)%N, kv, ringMsg{step: 0})
	}
	n.Sim.Run()
	if reduceBW > 0 {
		// Local reduction over N gathered lists, serial after the gather.
		finishedAt += float64(N) * kv / reduceBW
	}
	return finishedAt
}

// iidUnionDensity is the union non-zero density of N i.i.d. random
// tensors with element density d.
func iidUnionDensity(d float64, n int) float64 {
	return 1 - math.Pow(1-d, float64(n))
}

type splitMsg struct {
	phase int // 1 = scatter to owner, 2 = allgather step
	step  int
}

// SimSparCMLSplitAllgather models SSAR_Split_allgather (dynamic=false) and
// DSAR_Split_allgather (dynamic=true). unionDensity is the element density
// of the reduced result (i.i.d.: iidUnionDensity(D, N)).
func SimSparCMLSplitAllgather(c Cluster, tensorBytes, density, unionDensity float64, dynamic bool) float64 {
	N := c.Workers
	if N == 1 {
		return 0
	}
	n := netsim.NewNet(c.Latency, transport.Scenario{})
	nodes := make([]*netsim.Node, N)
	for w := 0; w < N; w++ {
		nodes[w] = n.AddNode(w, c.WorkerBW, c.WorkerBW)
		nodes[w].CPUPerMsg = c.CPUPerMsg
	}
	sliceKV := 2 * density * tensorBytes / float64(N)
	// Reduced partition representation.
	partDense := tensorBytes / float64(N)
	partKV := 2 * unionDensity * tensorBytes / float64(N)
	part := partKV
	if dynamic && partKV > partDense/2 {
		part = partDense // DSAR's sparse-to-dense switch at rho
	}

	steps := N - 1
	recvP1 := make([]int, N)
	finished := 0
	var finishedAt float64
	for w := 0; w < N; w++ {
		w := w
		right := (w + 1) % N
		nodes[w].Handler = func(m netsim.Message) {
			msg := m.Payload.(splitMsg)
			switch msg.phase {
			case 1:
				recvP1[w]++
				if recvP1[w] == N-1 {
					// Partition reduced; start the allgather ring.
					nodes[w].Send(right, part, splitMsg{phase: 2, step: 0})
				}
			case 2:
				if msg.step+1 < steps {
					nodes[w].Send(right, part, splitMsg{phase: 2, step: msg.step + 1})
				}
				if msg.step == steps-1 {
					finished++
					if finished == N {
						finishedAt = n.Sim.Now()
					}
				}
			}
		}
	}
	// Phase 1: scatter slices to owners.
	for w := 0; w < N; w++ {
		for p := 0; p < N; p++ {
			if p != w {
				nodes[w].Send(p, sliceKV, splitMsg{phase: 1})
			}
		}
	}
	n.Sim.Run()
	return finishedAt
}

type psMsg struct{ push bool }

// SimParameterServer models a sharded PS reduction (Parallax's sparse
// path): each worker pushes its key-value slices to `servers` PS shards;
// each shard replies to every worker with the reduced union slice.
func SimParameterServer(c Cluster, tensorBytes, density, unionDensity float64, servers int) float64 {
	N := c.Workers
	n := netsim.NewNet(c.Latency, transport.Scenario{})
	nodes := make([]*netsim.Node, N)
	for w := 0; w < N; w++ {
		nodes[w] = n.AddNode(w, c.WorkerBW, c.WorkerBW)
		nodes[w].CPUPerMsg = c.CPUPerMsg
	}
	srv := make([]*netsim.Node, servers)
	pushes := make([]int, servers)
	for s := 0; s < servers; s++ {
		srv[s] = n.AddNode(N+s, c.AggBW, c.AggBW)
		srv[s].CPUPerMsg = c.CPUPerMsg
	}
	pushKV := 2 * density * tensorBytes / float64(servers)
	pullKV := 2 * unionDensity * tensorBytes / float64(servers)

	replies := make([]int, N)
	finished := 0
	var finishedAt float64
	for s := 0; s < servers; s++ {
		s := s
		srv[s].Handler = func(m netsim.Message) {
			pushes[s]++
			if pushes[s] == N {
				for w := 0; w < N; w++ {
					srv[s].Send(w, pullKV, psMsg{})
				}
			}
		}
	}
	for w := 0; w < N; w++ {
		w := w
		nodes[w].Handler = func(m netsim.Message) {
			replies[w]++
			if replies[w] == servers {
				finished++
				if finished == N {
					finishedAt = n.Sim.Now()
				}
			}
		}
	}
	for w := 0; w < N; w++ {
		for s := 0; s < servers; s++ {
			nodes[w].Send(N+s, pushKV, psMsg{push: true})
		}
	}
	n.Sim.Run()
	return finishedAt
}

// SimParallax models Parallax's oracle hybrid (§6.1.2): the better of the
// PS sparse path and dense ring AllReduce, mimicking its runtime profiler
// with an ideal choice, exactly as the paper's methodology does.
func SimParallax(c Cluster, tensorBytes, density, unionDensity float64, servers int) float64 {
	ps := SimParameterServer(c, tensorBytes, density, unionDensity, servers)
	ring := SimRingAllReduce(c, tensorBytes)
	return math.Min(ps, ring)
}

// ConvertTime models the dense<->sparse format conversion cost excluded
// from the microbenchmarks but measured in Fig 8: a linear scan at
// convertBW bytes per second.
func ConvertTime(bytes, convertBW float64) float64 {
	if convertBW <= 0 {
		return 0
	}
	return bytes / convertBW
}

// DefaultConvertBW is the host-side tensor format conversion throughput
// used by Fig 8 (bytes/second).
const DefaultConvertBW = 5e9

// Scaled returns a cluster that simulates 1/scale of the traffic volume
// in the same virtual time: bandwidths are divided and per-message CPU
// multiplied by scale, so bandwidth- and CPU-bound terms are preserved
// while the event count shrinks by ~scale. Latency terms are unchanged
// (they are amortized by pipelining in all modeled protocols).
func (c Cluster) Scaled(scale int) Cluster {
	if scale <= 1 {
		return c
	}
	f := float64(scale)
	c.WorkerBW /= f
	c.AggBW /= f
	if c.CopyBW > 0 {
		c.CopyBW /= f
	}
	c.CPUPerMsg *= f
	return c
}
