package core

import (
	"os"
	"testing"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/transport"
)

// TestUDPSoakUnderChaos soaks the UDP datapath under sustained chaos
// injection: real loopback sockets behind a ChaosFabric dropping,
// duplicating, and reordering datagrams, with Algorithm 2's retransmission
// repairing the damage, verified collective after collective until the
// deadline. It hammers duplicated and delayed copies landing inside an
// emit burst, the aggregator's receive pump running ahead of its shards,
// and opState reuse across hundreds of collectives on the same
// connections.
//
// Clean exit criteria: every collective sums correctly, the pool-leak
// audit settles to zero (no pooled buffer stranded in a shard queue or a
// chaos delay timer), and no stall-watchdog postmortem fires. Under -race
// the soak runs the tier's full 30 seconds.
func TestUDPSoakUnderChaos(t *testing.T) {
	soak := 8 * time.Second
	if raceEnabled {
		soak = 30 * time.Second
	}
	if testing.Short() {
		soak = 2 * time.Second
	}

	audit := obs.StartLeakAudit()
	pmDir := t.TempDir()
	cfg := Config{
		Workers:           3,
		Aggregators:       []int{3},
		Reliable:          false,
		BlockSize:         32,
		FusionWidth:       4,
		OpQueueLen:        256,
		RetransmitTimeout: 25 * time.Millisecond,
		StallTimeout:      10 * time.Second,
		PostmortemDir:     pmDir,
	}
	cfg = cfg.withDefaults()

	// Continuous injection: a lossy storm phase alternating with a calmer
	// phase, the final (sticky) phase still injecting so chaos never goes
	// quiet for the rest of the soak.
	fabric := transport.NewChaosFabric(transport.Scenario{
		Seed: 97,
		Phases: []transport.Phase{
			{Packets: 200, Drop: 0.04, Dup: 0.03, Reorder: 0.12, ReorderSpan: 3,
				Delay: 2 * time.Millisecond, DelayP: 0.05},
			{Packets: 150, Drop: 0.01},
			{Drop: 0.02, Dup: 0.02, Reorder: 0.05, ReorderSpan: 2},
		},
	})

	// Build the UDP loopback cluster on ":0" ports, then wrap every
	// endpoint in the fabric.
	aggID := cfg.Aggregators[0]
	aggUDP, err := transport.NewUDP(aggID, map[int]string{aggID: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	aggConn := fabric.Wrap(aggUDP)
	agg, err := NewAggregator(aggConn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Worker, cfg.Workers)
	for i := range workers {
		wUDP, err := transport.NewUDP(i, map[int]string{
			i:     "127.0.0.1:0",
			aggID: aggUDP.Addr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := aggUDP.RegisterPeer(i, wUDP.Addr()); err != nil {
			t.Fatal(err)
		}
		if workers[i], err = NewWorker(fabric.Wrap(wUDP), cfg); err != nil {
			t.Fatal(err)
		}
	}
	aggDone := make(chan error, 1)
	go func() { aggDone <- agg.Run() }()

	deadline := time.Now().Add(soak)
	rounds := 0
	for time.Now().Before(deadline) {
		inputs := randomInputs(32*24, cfg.Workers, 0.7, int64(1000+rounds))
		want := expectedSum(inputs)
		errs := make([]error, cfg.Workers)
		done := make(chan int, cfg.Workers)
		for i, w := range workers {
			go func(i int, w *Worker) {
				errs[i] = w.AllReduce(inputs[i])
				done <- i
			}(i, w)
		}
		for range workers {
			<-done
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", rounds, i, err)
			}
		}
		checkResult(t, inputs, want)
		rounds++
	}
	t.Logf("soak: %d verified collectives in %v, chaos events: %+v",
		rounds, soak, fabric.Counts())
	if rounds < 2 {
		t.Fatalf("soak completed only %d rounds", rounds)
	}
	if fabric.Counts().Total() == 0 {
		t.Fatal("chaos fabric injected nothing")
	}

	for _, w := range workers {
		w.Close()
	}
	// Close the conn the aggregator was given, not the raw socket under
	// it: the fabric owns the pooled buffers its reorder holds are sitting
	// on, and only its own Close releases them.
	aggConn.Close()
	select {
	case err := <-aggDone:
		if err != nil {
			t.Fatalf("aggregator: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aggregator did not shut down")
	}

	// Chaos delay timers deliver asynchronously; give the audit its
	// settlement window, then require a clean balance sheet.
	if leaks := audit.Settle(3 * time.Second); len(leaks) != 0 {
		t.Fatalf("soak leaked pooled buffers: %v", obs.LeaksErr(leaks))
	}
	// No stall-watchdog postmortem may have fired.
	entries, err := os.ReadDir(pmDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("stall watchdog captured %d postmortem(s) during the soak: %v", len(entries), entries)
	}
}
