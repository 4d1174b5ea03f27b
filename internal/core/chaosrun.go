package core

import (
	"fmt"
	"time"

	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
	"omnireduce/internal/transport"
)

// Chaos scenario runner: builds an in-process cluster whose every endpoint
// routes through a transport.ChaosFabric, runs one AllReduce per worker,
// and verifies the result against the dense reference sum. The runner is
// what the chaos end-to-end suite and the lossynet example drive; because
// both the channel fabric and the chaos decisions are deterministic,
// re-running a ChaosRun with the same scenario replays the exact injection
// decisions of a failure.

// ChaosReport summarizes one chaos scenario run.
type ChaosReport struct {
	// MaxAbsErr is the largest |result - reference| over all workers and
	// elements, where the reference is the worker-ID-ordered float32 sum.
	MaxAbsErr float64
	// Exact reports whether every worker's result is bit-identical to the
	// reference (guaranteed when cfg.DeterministicOrder is set).
	Exact bool
	// Events are the fabric's injection tallies.
	Events transport.EventCounts
	// WindowEvents is the deterministic replay fingerprint: injection
	// events within the scenario's per-link window.
	WindowEvents int64
	// WorkerStats are per-worker protocol counters.
	WorkerStats []Stats
	// AggStats are per-aggregator protocol counters.
	AggStats []AggStats
	// Pump are per-worker receive-pump routing counters.
	Pump []PumpStats
	// PoolLeaks lists pools whose get/put balance did not return to the
	// run's starting point within the settlement window (empty on a clean
	// run). A non-empty list means some receive path dropped a pooled
	// buffer on the floor.
	PoolLeaks []obs.PoolBalance
	// Elapsed is the wall-clock duration of the collective.
	Elapsed time.Duration
}

// Retransmits sums worker retransmissions.
func (r *ChaosReport) Retransmits() int64 {
	var n int64
	for _, s := range r.WorkerStats {
		n += s.Retransmits
	}
	return n
}

// RecoveryCounters merges every participant's recovery counters.
func (r *ChaosReport) RecoveryCounters() *metrics.Counters {
	c := metrics.NewCounters()
	for i := range r.WorkerStats {
		c.Merge(r.WorkerStats[i].RecoveryCounters())
	}
	for _, s := range r.AggStats {
		c.Merge(aggRecoveryCounters(s))
	}
	return c
}

// aggRecoveryCounters exports the loss-recovery subset of an aggregator's
// counters as a metrics counter set.
func aggRecoveryCounters(s AggStats) *metrics.Counters {
	c := metrics.NewCounters()
	c.Add("result_replays", s.Replays)
	c.Add("dups_filtered", s.DupsFiltered)
	c.Add("stale_rounds", s.StaleRounds)
	c.Add("stale_finished_dropped", s.StaleFinished)
	c.Add("fast_forwards", s.FastForwards)
	return c
}

// ObsReport renders the run's observability summary: merged pump
// counters, the pool-balance audit verdict, and current pool balances.
func (r *ChaosReport) ObsReport() *metrics.Table {
	t := metrics.NewTable("chaos observability", "metric", "value")
	var pump PumpStats
	for _, p := range r.Pump {
		pump.Delivered += p.Delivered
		pump.StaleDrops += p.StaleDrops
		pump.OverflowDrops += p.OverflowDrops
		pump.BadPackets += p.BadPackets
	}
	t.AddRow("pump_delivered", pump.Delivered)
	t.AddRow("pump_stale_drops", pump.StaleDrops)
	t.AddRow("pump_overflow_drops", pump.OverflowDrops)
	t.AddRow("pump_bad_packets", pump.BadPackets)
	t.AddRow("pool_leaks", int64(len(r.PoolLeaks)))
	for _, l := range r.PoolLeaks {
		t.AddRow("leak:"+l.Name, l.Outstanding())
	}
	return t
}

// RunChaosScenario runs one AllReduce for each worker of cfg over a
// channel fabric wrapped in the given chaos scenario, using copies of
// inputs (the caller's slices are not mutated). cfg.Reliable is forced
// off: chaos injection requires Algorithm 2's loss recovery. The deadline
// bounds the whole collective (0 means 60s).
func RunChaosScenario(cfg Config, sc transport.Scenario, inputs [][]float32, deadline time.Duration) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	cfg.Reliable = false
	if len(cfg.Aggregators) == 0 {
		cfg.Aggregators = []int{cfg.Workers}
	}
	if len(inputs) != cfg.Workers {
		return nil, fmt.Errorf("core: %d inputs for %d workers", len(inputs), cfg.Workers)
	}
	if deadline == 0 {
		deadline = 60 * time.Second
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Reference: worker-ID-ordered float32 sum — exactly what
	// DeterministicOrder reproduces.
	ref := make([]float32, len(inputs[0]))
	work := make([][]float32, len(inputs))
	for w, in := range inputs {
		if len(in) != len(ref) {
			return nil, fmt.Errorf("core: worker %d input length %d != %d", w, len(in), len(ref))
		}
		work[w] = append([]float32(nil), in...)
		for i, v := range in {
			ref[i] += v
		}
	}

	// Bracket the run with a pool-leak audit: after teardown every
	// GetBuf must be matched by a PutBuf (chaos delay timers deliver
	// asynchronously, hence the settlement window below).
	audit := obs.StartLeakAudit()

	fabric := transport.NewChaosFabric(sc)
	nw := transport.NewNetwork(cfg.Workers, 4096)
	var aggs []*Aggregator
	var conns []transport.Conn
	aggErr := make(chan error, len(cfg.Aggregators))
	for _, id := range cfg.Aggregators {
		conn := fabric.Wrap(nw.AddNode(id))
		agg, err := NewAggregator(conn, cfg)
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, agg)
		conns = append(conns, conn)
		go func(a *Aggregator) { aggErr <- a.Run() }(agg)
	}
	workers := make([]*Worker, cfg.Workers)
	for i := range workers {
		conn := fabric.Wrap(nw.Conn(i))
		w, err := NewWorker(conn, cfg)
		if err != nil {
			return nil, err
		}
		workers[i] = w
		conns = append(conns, conn)
	}

	start := time.Now()
	errs := make(chan error, cfg.Workers)
	for i, w := range workers {
		go func(i int, w *Worker) { errs <- w.AllReduce(work[i]) }(i, w)
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	var firstErr error
	for i := 0; i < cfg.Workers; i++ {
		select {
		case err := <-errs:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-timer.C:
			for _, w := range workers {
				w.Close()
			}
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("core: chaos scenario deadline (%v) exceeded", deadline)
		}
	}
	elapsed := time.Since(start)
	// Worker.Close (not just the conn) releases the persistent per-op
	// driver states, returning their decode states to the pool so the
	// audit below balances.
	for _, w := range workers {
		w.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Aggregator stats are written by the Run goroutines; wait for them.
	for range aggs {
		if err := <-aggErr; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	rep := &ChaosReport{
		Exact:        true,
		Events:       fabric.Counts(),
		WindowEvents: fabric.WindowEvents(),
		Elapsed:      elapsed,
	}
	for w := range work {
		for i := range ref {
			if work[w][i] != ref[i] {
				rep.Exact = false
			}
			d := float64(work[w][i]) - float64(ref[i])
			if d < 0 {
				d = -d
			}
			if d > rep.MaxAbsErr {
				rep.MaxAbsErr = d
			}
		}
	}
	for _, w := range workers {
		rep.WorkerStats = append(rep.WorkerStats, w.Stats.Snapshot())
		rep.Pump = append(rep.Pump, w.PumpSnapshot())
	}
	for _, a := range aggs {
		rep.AggStats = append(rep.AggStats, a.Stats)
	}
	rep.PoolLeaks = audit.Settle(2 * time.Second)
	return rep, nil
}
