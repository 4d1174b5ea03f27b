package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// Lifetime tier for the receive path's ownership rule: a driver decodes a
// message as a view of its buffer and releases the buffer when
// HandlePacket returns, so a machine that kept any slice of the packet
// would go on to read whatever the pool puts there next. These tests make
// "next" immediate and hostile on the worker side; the aggregator side is
// held to the same rule at machine level (internal/protocol's
// TestMachinesReleaseNoLiveView), because a shard handles a packet while
// its router is already receiving the next.

// poisonConn gives a worker a private copy of every inbound message and
// overwrites the copy with 0xFF (NaNs, and keys no tensor has) at the
// first moment the worker has provably finished handling it: running one
// stream over dense input, it answers every result and gets the next only
// after its answer, so its copies are poisoned on its next send — before
// the next result is applied.
//
// The copies never enter the buffer pool (their capacity is no pool class),
// so nothing but a retained view can still be looking at one.
type poisonConn struct {
	transport.Conn

	mu        sync.Mutex
	delivered [][]byte
}

func (c *poisonConn) poison() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.delivered {
		for i := range b {
			b[i] = 0xFF
		}
	}
	c.delivered = c.delivered[:0]
}

func (c *poisonConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	// The driver's PutBuf of the copy stands in for the original's, which
	// is left to the collector: the pool audit stays balanced.
	private := make([]byte, len(m.Data), len(m.Data)|1)
	copy(private, m.Data)
	c.mu.Lock()
	c.delivered = append(c.delivered, private)
	c.mu.Unlock()
	m.Data = private
	return m, nil
}

func (c *poisonConn) Send(to int, data []byte) error {
	c.poison()
	return c.Conn.Send(to, data)
}

func (c *poisonConn) SendBatch(msgs []transport.Outgoing) error {
	c.poison()
	return transport.SendAll(c.Conn, msgs)
}

// poisonCluster is startCluster with every worker behind a poisonConn. One
// stream gives the lockstep poisonConn's timing rests on.
func poisonCluster(t *testing.T, cfg Config) *cluster {
	t.Helper()
	cfg.Reliable = true
	cfg.Streams = 1
	cfg.BlockSize = 32
	cfg.FusionWidth = 4
	return startClusterOn(t, cfg, func(id int, conn transport.Conn) transport.Conn {
		if id >= cfg.Workers {
			return conn
		}
		return &poisonConn{Conn: conn}
	})
}

// TestDriversReleaseNoLiveView runs each aggregation mode with every
// result buffer a worker receives poisoned right after its HandlePacket,
// and still expects the exact sum. Two workers where contributions are
// summed in arrival order (a+b is b+a bit for bit), three where the order
// is fixed.
func TestDriversReleaseNoLiveView(t *testing.T) {
	const n = 32*4*5 + 7 // five full packets per worker and a short tail
	sameBits := func(t *testing.T, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("elem %d: %v (%#x) != %v (%#x): a released buffer was still being read",
					i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}

	t.Run("reliable", func(t *testing.T) {
		c := poisonCluster(t, Config{Workers: 2})
		inputs := randomInputs(n, 2, 0, 21)
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		for _, got := range inputs {
			sameBits(t, got, want)
		}
	})

	t.Run("sparse-bootstrap", func(t *testing.T) {
		// Worker 1's bootstrap is header-only and worker 0's carries columns
		// 1 and 3 alone: round 0 closes with two columns nobody contributed
		// to and two with a single contributor. Everything after the first
		// blocks is dense, so both workers still answer every result.
		c := poisonCluster(t, Config{Workers: 2})
		inputs := randomInputs(n, 2, 0, 25)
		for _, b := range []int{0, 2} {
			clear(inputs[0][32*b : 32*(b+1)])
		}
		clear(inputs[1][:32*4])
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		for _, got := range inputs {
			sameBits(t, got, want)
		}
	})

	t.Run("deterministic-order", func(t *testing.T) {
		c := poisonCluster(t, Config{Workers: 3, DeterministicOrder: true})
		inputs := randomInputs(n, 3, 0, 22)
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		for _, got := range inputs {
			sameBits(t, got, want)
		}
	})

	t.Run("quantized", func(t *testing.T) {
		const scale = 1 << 16
		c := poisonCluster(t, Config{Workers: 3, QuantizeScale: scale})
		inputs := randomInputs(n, 3, 0, 23)
		want := make([]float32, n)
		for i := range want {
			var q int64
			for _, in := range inputs {
				q += int64(math.RoundToEven(float64(in[i]) * scale))
			}
			want[i] = float32(float64(q) / scale)
		}
		c.allReduce(t, inputs)
		for _, got := range inputs {
			sameBits(t, got, want)
		}
	})

	t.Run("key-value", func(t *testing.T) {
		// Both workers hold the same keys, so both are always waiting on
		// the same flush and the lockstep holds in this mode too.
		c := poisonCluster(t, Config{Workers: 2})
		rng := rand.New(rand.NewSource(24))
		const nnz = 32*4*5 + 9 // five full packets per worker and a short tail
		inputs := []*tensor.COO{tensor.NewCOO(3 * nnz), tensor.NewCOO(3 * nnz)}
		want := make([]float32, nnz)
		for k := 0; k < nnz; k++ {
			a, b := float32(rng.NormFloat64()), float32(rng.NormFloat64())
			inputs[0].Append(int32(3*k), a)
			inputs[1].Append(int32(3*k), b)
			want[k] = a + b
		}
		for w, out := range c.allReduceSparse(t, inputs) {
			if out.Len() != nnz {
				t.Fatalf("worker %d: %d pairs, want %d", w, out.Len(), nnz)
			}
			for k := 0; k < nnz; k++ {
				if out.Keys[k] != int32(3*k) {
					t.Fatalf("worker %d pair %d: key %d, want %d", w, k, out.Keys[k], 3*k)
				}
			}
			sameBits(t, out.Values, want)
		}
	})
}
