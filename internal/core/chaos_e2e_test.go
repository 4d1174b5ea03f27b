package core

import (
	"regexp"
	"strconv"
	"testing"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/transport"
)

// End-to-end chaos suite: full AllReduce runs through the seeded chaos
// fabric, verifying exact results and deterministic replay.

// retransmits sums a chaos run's worker retransmissions.
func retransmits(rep *ChaosReport) int64 {
	var n int64
	for _, s := range rep.WorkerStats {
		n += s.Retransmits
	}
	return n
}

// assertNoPoolLeaks fails the test when a chaos run's end-of-run pool
// audit reports unreturned buffers: every GetBuf on the run's receive
// paths must have been matched by a PutBuf once the cluster quiesced.
func assertNoPoolLeaks(t *testing.T, rep *ChaosReport) {
	t.Helper()
	if len(rep.PoolLeaks) != 0 {
		t.Fatalf("pool balance not restored after run: %v", obs.LeaksErr(rep.PoolLeaks))
	}
}

// denseInputs builds fully dense inputs so the number of protocol rounds
// (and hence per-link packets) has a known floor: with bs-sized blocks,
// s streams, and fusion width f, every stream runs about
// n/(bs*s*f) rounds, and every (worker, aggregator) link carries at least
// one packet per stream per round in each direction.
func denseInputs(n, workers int, seed int64) [][]float32 {
	return randomInputs(n, workers, 0, seed)
}

// chaosE2ECfg is the common configuration of the e2e scenarios:
// DeterministicOrder makes the expected result bit-exact.
func chaosE2ECfg(workers int) Config {
	return Config{
		Workers:            workers,
		Reliable:           false,
		DeterministicOrder: true,
		BlockSize:          32,
		FusionWidth:        4,
		Streams:            2,
		RetransmitTimeout:  3 * time.Millisecond,
	}
}

// TestChaosScenarioDeterministicReplay is the acceptance scenario: a
// schedule that drops, reorders, delays, and duplicates packets completes
// AllReduce with the exact dense-sum result, and re-running with the same
// seed reproduces identical injection decisions, verified by the
// deterministic windowed injection-event count.
func TestChaosScenarioDeterministicReplay(t *testing.T) {
	cfg := chaosE2ECfg(3)
	// 512 blocks over 2 streams and 4 columns => ~64 rounds per stream,
	// so every link carries >= ~128 packets: comfortably above Window.
	inputs := denseInputs(32*512, 3, 99)
	sc := transport.Scenario{
		Seed:   2021,
		Window: 100,
		Phases: []transport.Phase{
			{Packets: 40, Drop: 0.05, Dup: 0.05},
			{Packets: 30, Reorder: 0.15, ReorderSpan: 2},
			{Packets: 30, Drop: 0.02, Delay: 2 * time.Millisecond, DelayP: 0.3},
			{Drop: 0.01},
		},
	}

	run := func() *ChaosReport {
		rep, err := RunChaosScenario(cfg, sc, inputs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := run()
	b := run()

	for name, rep := range map[string]*ChaosReport{"first": a, "replay": b} {
		if !rep.Exact {
			t.Fatalf("%s run: result not exactly the dense sum (max err %g)", name, rep.MaxAbsErr)
		}
		ev := rep.Events
		if ev.Dropped == 0 || ev.Duplicated == 0 || ev.Reordered == 0 || ev.Delayed == 0 {
			t.Fatalf("%s run: scenario must drop, dup, reorder, and delay; got %+v", name, ev)
		}
		assertNoPoolLeaks(t, rep)
	}
	if a.WindowEvents == 0 {
		t.Fatal("no injection events inside the deterministic window")
	}
	if a.WindowEvents != b.WindowEvents {
		t.Fatalf("same seed, different injection decisions: window events %d vs %d",
			a.WindowEvents, b.WindowEvents)
	}
	// A different seed virtually always lands on a different fingerprint;
	// log rather than assert to keep the test non-flaky.
	sc2 := sc
	sc2.Seed = 2022
	c, err := RunChaosScenario(cfg, sc2, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.WindowEvents == a.WindowEvents {
		t.Logf("note: seeds 2021 and 2022 coincided on window fingerprint %d", a.WindowEvents)
	}
	if !c.Exact {
		t.Fatalf("different seed must still converge exactly; max err %g", c.MaxAbsErr)
	}
}

// TestChaosRecoveryCountersSurface checks the per-event recovery metrics:
// a lossy run must show retransmissions on the workers and replay /
// duplicate-filter activity on the aggregator, all visible as rows of the
// run's one observability table.
func TestChaosRecoveryCountersSurface(t *testing.T) {
	cfg := chaosE2ECfg(2)
	sc := transport.Scenario{
		Seed:   7,
		Phases: []transport.Phase{{Drop: 0.10, Dup: 0.05}},
	}
	rep, err := RunChaosScenario(cfg, sc, denseInputs(32*256, 2, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Fatalf("max err %g", rep.MaxAbsErr)
	}
	assertNoPoolLeaks(t, rep)
	if retransmits(rep) == 0 {
		t.Fatal("10% loss with no retransmissions")
	}
	report := rep.ObsReport().String()
	row := func(name string) int64 {
		m := regexp.MustCompile(`(?m)^` + name + ` +(\d+)$`).FindStringSubmatch(report)
		if m == nil {
			t.Fatalf("no %s row in:\n%s", name, report)
		}
		v, _ := strconv.ParseInt(m[1], 10, 64)
		return v
	}
	if row("retransmits") != retransmits(rep) {
		t.Fatalf("report retransmits %d != stats %d", row("retransmits"), retransmits(rep))
	}
	// Duplicated packets and retransmissions crossing a round boundary
	// both surface on the aggregator.
	var aggRecovery int64
	for _, s := range rep.AggStats {
		aggRecovery += s.DupsFiltered + s.StaleRounds + s.Replays
	}
	if aggRecovery == 0 {
		t.Fatal("aggregator saw no duplicate/stale traffic at 10% loss + 5% dup")
	}
	if row("dups_filtered")+row("stale_rounds")+row("result_replays") != aggRecovery {
		t.Fatal("report's recovery rows do not match aggregator stats")
	}
}

// TestChaosBackoffEngages verifies the exponential-backoff path: under a
// long worker->aggregator partition the worker's retransmission timer must
// grow (Backoffs counter) instead of hammering at the base rate.
func TestChaosBackoffEngages(t *testing.T) {
	cfg := chaosE2ECfg(2)
	cfg.RetransmitCeiling = 12 * time.Millisecond
	sc := transport.Scenario{
		Seed: 13,
		Phases: []transport.Phase{
			// Blackhole both workers toward the aggregator (node 2) long
			// enough for several timer expiries.
			{Packets: 8, Partitions: []transport.Partition{{From: -1, To: 2}}},
			{},
		},
	}
	rep, err := RunChaosScenario(cfg, sc, denseInputs(32*64, 2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Fatalf("max err %g", rep.MaxAbsErr)
	}
	assertNoPoolLeaks(t, rep)
	var backoffs, retrans int64
	for _, s := range rep.WorkerStats {
		backoffs += s.Backoffs
		retrans += s.Retransmits
	}
	if retrans == 0 {
		t.Fatal("partition with no retransmissions")
	}
	if backoffs == 0 {
		t.Fatal("sustained partition did not trigger exponential backoff")
	}
}

// TestChaosE2ESuite runs the heavier combined scenarios; skipped in -short
// so tier-1 stays fast.
func TestChaosE2ESuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name    string
		workers int
		aggs    []int
		n       int
		sc      transport.Scenario
	}{
		{
			name: "everything-at-once", workers: 4, n: 32 * 512,
			sc: transport.Scenario{Seed: 31, Window: 80, Phases: []transport.Phase{
				{Packets: 60, Drop: 0.04, Dup: 0.04, Reorder: 0.1, ReorderSpan: 2,
					Delay: time.Millisecond, DelayP: 0.2},
				{Drop: 0.01},
			}},
		},
		{
			name: "multi-aggregator-chaos", workers: 3, aggs: []int{3, 4}, n: 32 * 384,
			sc: transport.Scenario{Seed: 37, Phases: []transport.Phase{
				{Packets: 50, Drop: 0.05, Burst: &transport.Burst{PEnter: 0.02, PExit: 0.3, DropBad: 0.8}},
				{},
			}},
		},
		{
			name: "alternating-storms", workers: 3, n: 32 * 512,
			sc: transport.Scenario{Seed: 41, Phases: []transport.Phase{
				{Packets: 25, Drop: 0.15},
				{Packets: 25},
				{Packets: 25, Reorder: 0.3, ReorderSpan: 3},
				{Packets: 25},
				{Packets: 25, Dup: 0.2},
				{},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosE2ECfg(tc.workers)
			cfg.Aggregators = tc.aggs
			rep, err := RunChaosScenario(cfg, tc.sc, denseInputs(tc.n, tc.workers, 17), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Exact {
				t.Fatalf("result drifted from dense sum: max err %g", rep.MaxAbsErr)
			}
			assertNoPoolLeaks(t, rep)
			if rep.Events.Total() == 0 {
				t.Fatal("scenario injected nothing")
			}
			// Replay check on every scenario, not just the acceptance one.
			rep2, err := RunChaosScenario(cfg, tc.sc, denseInputs(tc.n, tc.workers, 17), 0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sc.Window > 0 && rep.WindowEvents != rep2.WindowEvents {
				t.Fatalf("replay fingerprint mismatch: %d vs %d", rep.WindowEvents, rep2.WindowEvents)
			}
		})
	}
}
