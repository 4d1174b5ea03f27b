package core

import (
	"sync"
	"testing"

	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Sharded-aggregator driver tests: any shard count must produce the same
// results and statistics while packets for many slots land concurrently.
// Run under -race (make race) this also proves the shards share no
// protocol state.

// runShardedCluster drives overlapped AllReduces through a cluster whose
// aggregator uses the given shard count, shuts the cluster down, and
// returns the aggregator's folded stats.
func runShardedCluster(t *testing.T, shards, workers, nOps, n int) AggStats {
	t.Helper()
	cfg := Config{
		Workers:   workers,
		Reliable:  true,
		Streams:   8, // many slots so every shard sees traffic
		AggShards: shards,
	}
	c := startCluster(t, cfg, 0, 404)
	inputs := make([][][]float32, nOps)
	for op := range inputs {
		inputs[op] = randomInputs(n, workers, 0.5, int64(500+op))
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapped async ops: many tensors in flight at once, so
			// packets for different slots and tensors interleave freely.
			var pending []*Pending
			for op := 0; op < nOps; op++ {
				p, err := c.workers[w].AllReduceAsync(inputs[op][w])
				if err != nil {
					errs[w] = err
					return
				}
				pending = append(pending, p)
			}
			for _, p := range pending {
				if err := p.Wait(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Shut down so the Run goroutines fold their shard stats (Stats is
	// only defined after Run returns). The t.Cleanup shutdown re-running
	// these closes is harmless.
	for _, w := range c.workers {
		w.Close()
	}
	for _, conn := range c.aggConns {
		conn.Close()
	}
	c.aggWG.Wait()
	select {
	case err := <-c.aggErr:
		t.Fatalf("aggregator error: %v", err)
	default:
	}
	return c.aggs[0].Stats
}

func TestAggregatorStatsShardCountInvariant(t *testing.T) {
	const workers, nOps, n = 4, 6, 4096
	one := runShardedCluster(t, 1, workers, nOps, n)
	sharded := runShardedCluster(t, 4, workers, nOps, n)
	if one != sharded {
		t.Errorf("stats drifted between 1 and 4 shards:\n 1 shard  %+v\n 4 shards %+v", one, sharded)
	}
	if sharded.PacketsRecvd == 0 || sharded.RoundsCompleted == 0 {
		t.Fatalf("sharded aggregator saw no traffic: %+v", sharded)
	}
}

func TestShardedAggregatorCorrectSums(t *testing.T) {
	const workers, nOps, n = 3, 4, 3000
	cfg := Config{Workers: workers, Reliable: true, Streams: 8, AggShards: 4}
	c := startCluster(t, cfg, 0, 405)
	for op := 0; op < nOps; op++ {
		inputs := randomInputs(n, workers, 0.6, int64(900+op))
		want := expectedSum(inputs)
		c.allReduce(t, inputs)
		checkResult(t, inputs, want)
	}
}

func TestShardedAggregatorSurfacesProtocolErrors(t *testing.T) {
	nw := transport.NewNetwork(1, 16)
	aggConn := nw.AddNode(1)
	defer aggConn.Close()
	cfg := Config{Workers: 1, Aggregators: []int{1}, Reliable: true, AggShards: 4}
	a, err := NewAggregator(aggConn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	// An unknown worker ID is a protocol error; the owning shard must
	// surface it through Run.
	bad := wire.AppendPacket(nil, &wire.Packet{
		Type: wire.TypeData, WID: 9, TensorID: 1, BlockSize: 4,
		Nexts: []uint32{wire.Inf(0)},
	})
	sender := nw.Conn(0)
	if err := sender.Send(1, bad); err != nil {
		t.Fatal(err)
	}
	// Nudge the router out of Recv so it notices the shard failure even if
	// the first packet raced past the failure check.
	if err := sender.Send(1, bad); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if err == nil {
		t.Fatal("Run returned nil; want protocol error from shard")
	}
}
