package core

import (
	"testing"
	"time"

	"omnireduce/internal/transport"
)

// Table-driven chaos-pattern tests: each failure pattern from the paper's
// unreliable-transport evaluation (burst loss, reordering, delay,
// asymmetric partitions) gets a seeded scenario, and each run must both
// converge to the exact dense sum and keep retransmissions bounded — loss
// recovery must not degenerate into a retransmit storm.

func TestChaosFailurePatterns(t *testing.T) {
	type pattern struct {
		name string
		// cluster shape
		workers int
		aggs    []int
		blocks  int
		// scenario
		sc transport.Scenario
		// retransmission bounds over all workers: minRetrans proves the
		// pattern actually exercised recovery, maxRetrans proves recovery
		// stayed proportionate to the injected damage.
		minRetrans int64
		maxRetrans int64
		// extra per-pattern assertions on the report
		check func(t *testing.T, rep *ChaosReport)
	}

	patterns := []pattern{
		{
			name:    "burst-loss",
			workers: 3,
			blocks:  256,
			sc: transport.Scenario{
				Seed: 101,
				Phases: []transport.Phase{
					// Gilbert–Elliott: rare entry into a bad state that
					// drops most packets, so losses cluster in runs.
					{Packets: 120, Burst: &transport.Burst{
						PEnter: 0.03, PExit: 0.25, DropGood: 0.0, DropBad: 0.9,
					}},
					{},
				},
			},
			minRetrans: 1,
			maxRetrans: 2000,
			check: func(t *testing.T, rep *ChaosReport) {
				if rep.Events.BurstDrops == 0 {
					t.Fatal("burst pattern produced no burst drops")
				}
			},
		},
		{
			name:    "reorder-heavy",
			workers: 3,
			blocks:  256,
			sc: transport.Scenario{
				Seed: 103,
				Phases: []transport.Phase{
					{Packets: 150, Reorder: 0.35, ReorderSpan: 4},
					{},
				},
			},
			minRetrans: 0, // reordering alone may be absorbed by versioning
			maxRetrans: 500,
			check: func(t *testing.T, rep *ChaosReport) {
				if rep.Events.Reordered == 0 {
					t.Fatal("reorder pattern reordered nothing")
				}
			},
		},
		{
			name:    "delay-heavy",
			workers: 3,
			blocks:  256,
			sc: transport.Scenario{
				Seed: 107,
				Phases: []transport.Phase{
					// Delays beyond the retransmit timeout force spurious
					// retransmissions that the aggregator must filter.
					{Packets: 80, Delay: 5 * time.Millisecond, DelayP: 0.4},
					{},
				},
			},
			minRetrans: 1,
			maxRetrans: 3000,
			check: func(t *testing.T, rep *ChaosReport) {
				if rep.Events.Delayed == 0 {
					t.Fatal("delay pattern delayed nothing")
				}
				var filtered int64
				for _, s := range rep.AggStats {
					filtered += s.DupsFiltered + s.StaleRounds + s.StaleFinished
				}
				if filtered == 0 {
					t.Fatal("late originals after retransmission were never filtered")
				}
			},
		},
		{
			name:    "asymmetric-partition",
			workers: 2,
			blocks:  64,
			sc: transport.Scenario{
				Seed: 109,
				Phases: []transport.Phase{
					// Worker 0 -> aggregator (node 2) only; the reverse
					// path and worker 1 stay healthy, so the aggregator
					// keeps answering a worker it cannot hear.
					{Packets: 15, Partitions: []transport.Partition{{From: 0, To: 2}}},
					{},
				},
			},
			minRetrans: 1,
			maxRetrans: 600,
			check: func(t *testing.T, rep *ChaosReport) {
				if rep.Events.Partitioned == 0 {
					t.Fatal("partition pattern blackholed nothing")
				}
			},
		},
	}

	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) {
			cfg := Config{
				Workers:            p.workers,
				Aggregators:        p.aggs,
				Reliable:           false,
				DeterministicOrder: true,
				BlockSize:          32,
				FusionWidth:        4,
				Streams:            2,
				RetransmitTimeout:  2 * time.Millisecond,
				RetransmitCeiling:  10 * time.Millisecond,
			}
			inputs := randomInputs(32*p.blocks, p.workers, 0, int64(p.sc.Seed))
			rep, err := RunChaosScenario(cfg, p.sc, inputs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Exact {
				t.Fatalf("pattern broke correctness: max err %g", rep.MaxAbsErr)
			}
			got := retransmits(rep)
			if got < p.minRetrans {
				t.Fatalf("retransmits %d below floor %d: pattern did not exercise recovery", got, p.minRetrans)
			}
			if got > p.maxRetrans {
				t.Fatalf("retransmits %d above bound %d: recovery degenerated into a storm", got, p.maxRetrans)
			}
			if p.check != nil {
				p.check(t, rep)
			}
			// Every pattern must be replayable: same scenario, same
			// windowed decisions (full-run counts can differ only through
			// traffic volume, which the window excludes).
			sc := p.sc
			sc.Window = 30
			r1, err := RunChaosScenario(cfg, sc, inputs, 0)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunChaosScenario(cfg, sc, inputs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r1.WindowEvents != r2.WindowEvents {
				t.Fatalf("pattern not replayable: window events %d vs %d", r1.WindowEvents, r2.WindowEvents)
			}
		})
	}
}
