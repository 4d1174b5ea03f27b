package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/transport"
)

// Loss-recovery tests exercise Algorithm 2 over the channel transport
// wrapped in a seeded chaos fabric (drops, duplicates, reordering).

func lossyConfig(workers int) Config {
	return Config{
		Workers:           workers,
		Reliable:          false,
		RetransmitTimeout: 5 * time.Millisecond,
		Streams:           2,
		BlockSize:         32,
		FusionWidth:       4,
	}
}

func TestAllReduceWithPacketLoss(t *testing.T) {
	for _, rate := range []float64{0.001, 0.01, 0.05} {
		t.Run(fmt.Sprintf("loss=%v", rate), func(t *testing.T) {
			cfg := lossyConfig(3)
			c := startCluster(t, cfg, rate, 77)
			inputs := randomInputs(4_000, 3, 0.8, 13)
			want := expectedSum(inputs)
			c.allReduce(t, inputs)
			checkResult(t, inputs, want)
		})
	}
}

func TestAllReduceWithHeavyLossAndDuplication(t *testing.T) {
	cfg := lossyConfig(2)
	c := startCluster(t, cfg, 0.10, 99) // 10% drop + 2.5% duplication
	inputs := randomInputs(2_000, 2, 0.5, 5)
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	checkResult(t, inputs, want)
	var retrans int64
	for _, w := range c.workers {
		retrans += w.Stats.Snapshot().Retransmits
	}
	if retrans == 0 {
		t.Fatal("expected retransmissions at 10% loss")
	}
}

func TestAllReduceLossySequentialTensors(t *testing.T) {
	// Consecutive tensors over a lossy fabric: exercises the final-result
	// archive replay across tensor boundaries.
	cfg := lossyConfig(3)
	c := startCluster(t, cfg, 0.05, 123)
	for round := 0; round < 4; round++ {
		inputs := randomInputs(2_000, 3, 0.7, int64(round)*3)
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		checkResult(t, inputs, want)
	}
}

func TestAllReduceLossLessModeAcksSent(t *testing.T) {
	// In unreliable mode every worker answers every round, so ack packets
	// appear whenever a worker has nothing to contribute.
	cfg := lossyConfig(2)
	c := startCluster(t, cfg, 0, 7) // no actual loss; protocol still versioned
	// Element sparsity 0.999 gives ~97% block sparsity at bs=32, so
	// non-zero blocks rarely overlap between the two workers.
	inputs := randomInputs(8_192, 2, 0.999, 17)
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	checkResult(t, inputs, want)
	var acks int64
	for _, w := range c.workers {
		acks += w.Stats.Snapshot().AcksSent
	}
	if acks == 0 {
		t.Fatal("expected empty-ack packets in versioned mode with sparse data")
	}
}

func TestAllReduceLossyDense(t *testing.T) {
	cfg := lossyConfig(4)
	c := startCluster(t, cfg, 0.02, 11)
	inputs := randomInputs(3_000, 4, 0, 19)
	want := expectedSum(inputs)
	c.allReduce(t, inputs)
	checkResult(t, inputs, want)
}

// TestAllReduceOverUDP runs the full stack over real UDP sockets on
// loopback, including datagram loss injection.
func TestAllReduceOverUDP(t *testing.T) {
	const workers = 2
	cfg := Config{
		Workers:           workers,
		Aggregators:       []int{workers},
		Reliable:          false,
		RetransmitTimeout: 20 * time.Millisecond,
		Streams:           2,
		BlockSize:         64,
		FusionWidth:       4,
	}

	// Bind everything on ephemeral ports, then exchange addresses.
	eps := make([]*transport.UDP, workers+1)
	for i := range eps {
		u, err := transport.NewUDP(i, map[int]string{i: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		eps[i] = u
	}
	for i, u := range eps {
		for j, v := range eps {
			if i != j {
				if err := u.RegisterPeer(j, v.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	fabric := transport.NewChaosFabric(transport.Scenario{Seed: 3, Phases: []transport.Phase{{Drop: 0.01}}})
	aggConn := fabric.Wrap(eps[workers])
	agg, err := NewAggregator(aggConn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go agg.Run()
	defer aggConn.Close()

	ws := make([]*Worker, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(fabric.Wrap(eps[i]), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}

	inputs := randomInputs(10_000, workers, 0.9, 21)
	want := expectedSum(inputs)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ws[i].AllReduce(inputs[i])
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("UDP AllReduce timed out")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkResult(t, inputs, want)
}

// TestAllReduceOverTCP runs the reliable protocol over real TCP sockets.
func TestAllReduceOverTCP(t *testing.T) {
	const workers = 2
	cfg := Config{
		Workers:     workers,
		Aggregators: []int{workers},
		Reliable:    true,
		Streams:     2,
	}
	eps := make([]*transport.TCP, workers+1)
	addrs := map[int]string{}
	for i := range eps {
		tc, err := transport.NewTCP(i, map[int]string{i: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		eps[i] = tc
		addrs[i] = tc.Addr()
	}
	// Fill in the address book after all listeners are up.
	for i, tc := range eps {
		for j, a := range addrs {
			if i != j {
				if err := tc.RegisterPeer(j, a); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	agg, err := NewAggregator(eps[workers], cfg)
	if err != nil {
		t.Fatal(err)
	}
	go agg.Run()

	ws := make([]*Worker, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(eps[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	inputs := randomInputs(50_000, workers, 0.7, 31)
	want := expectedSum(inputs)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ws[i].AllReduce(inputs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkResult(t, inputs, want)
}

// Property-style stress: random loss rates and shapes still converge to
// the correct sum.
func TestAllReduceLossyProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for trial := 0; trial < 8; trial++ {
		r := rand.New(rand.NewSource(int64(trial) * 911))
		cfg := Config{
			Workers:           1 + r.Intn(4),
			Reliable:          false,
			RetransmitTimeout: 5 * time.Millisecond,
			BlockSize:         1 + r.Intn(64),
			FusionWidth:       1 + r.Intn(8),
			Streams:           1 + r.Intn(4),
		}
		rate := r.Float64() * 0.08
		c := startCluster(t, cfg, rate, int64(trial))
		inputs := randomInputs(1+r.Intn(3_000), cfg.Workers, r.Float64(), int64(trial)*7)
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		checkResult(t, inputs, want)
	}
}

func TestMaxRetriesFailsWithoutAggregator(t *testing.T) {
	// No aggregator is running: the worker must give up after MaxRetries
	// rather than spinning forever.
	nw := transport.NewNetwork(1, 64)
	nw.AddNode(1) // aggregator mailbox exists but nothing serves it
	cfg := Config{
		Workers: 1, Aggregators: []int{1},
		Reliable:          false,
		RetransmitTimeout: 2 * time.Millisecond,
		MaxRetries:        3,
		BlockSize:         4,
	}
	w, err := NewWorker(nw.Conn(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- w.AllReduce(make([]float32, 64)) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("AllReduce succeeded with no aggregator")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AllReduce did not give up")
	}
	if n := w.Stats.Snapshot().Retransmits; n < 3 {
		t.Fatalf("retransmits = %d, want >= 3", n)
	}
}

func TestBytesSentAccounting(t *testing.T) {
	cfg := Config{Workers: 2, Reliable: true, BlockSize: 16}
	c := startCluster(t, cfg, 0, 41)
	inputs := randomInputs(2_048, 2, 0.5, 43)
	c.allReduce(t, inputs)
	for i, w := range c.workers {
		s := w.Stats.Snapshot()
		if s.BytesSent <= 0 {
			t.Fatalf("worker %d: BytesSent = %d", i, s.BytesSent)
		}
		// Bytes must at least cover the counted data blocks.
		if s.BytesSent < s.BlocksSent*16*4 {
			t.Fatalf("worker %d: bytes %d below block payload %d",
				i, s.BytesSent, s.BlocksSent*16*4)
		}
	}
}

func TestAllReduceWithLossDupAndReorder(t *testing.T) {
	// Full chaos: drops, duplicates, and reordering on every endpoint.
	cfg := lossyConfig(3)
	cfg.RetransmitTimeout = 5 * time.Millisecond
	nw := transport.NewNetwork(3, 4096)
	fabric := transport.NewChaosFabric(transport.Scenario{
		Seed:   5,
		Phases: []transport.Phase{{Drop: 0.03, Dup: 0.02, Reorder: 0.1}},
	})
	aggConn := fabric.Wrap(nw.AddNode(3))
	agg, err := NewAggregator(aggConn, Config{
		Workers: 3, Aggregators: []int{3}, Reliable: false,
		BlockSize: 32, FusionWidth: 4, Streams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	go agg.Run()
	defer aggConn.Close()
	ws := make([]*Worker, 3)
	for i := range ws {
		conn := fabric.Wrap(nw.Conn(i))
		cfgW := cfg
		cfgW.Aggregators = []int{3}
		if ws[i], err = NewWorker(conn, cfgW); err != nil {
			t.Fatal(err)
		}
		defer ws[i].Close()
	}
	inputs := randomInputs(3_000, 3, 0.7, 61)
	want := expectedSum(inputs)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ws[i].AllReduce(inputs[i])
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos AllReduce timed out")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	checkResult(t, inputs, want)
}
