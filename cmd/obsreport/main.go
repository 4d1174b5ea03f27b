// Command obsreport exercises the observability layer end to end: it runs
// a short in-process AllReduce sweep with a trace counter installed and a
// pool-leak audit bracketing the run, renders the metrics registry, trace
// tallies, receive-pump routing decisions, and pool balances as tables,
// and records the whole snapshot to a JSON file so the observability
// surface is tracked alongside BENCH_datapath.json from PR to PR. A last
// sweep runs with a standby aggregator, so the failover counters carry
// real numbers and the report can say what mirroring costs per operation
// and which view epoch the aggregators are in.
//
// The report includes p50/p95/p99 for every histogram (extracted from the
// log2 buckets by the registry snapshot) and the disabled-tracer overhead
// delta: the same sweep timed with no tracer installed vs with the
// counting tracer, recording what the tracing layer costs when off vs on.
//
// Usage:
//
//	go run ./cmd/obsreport -o OBS_datapath.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"omnireduce"
	"omnireduce/internal/core"
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
)

// report is the on-disk layout: the registry snapshot and pool balances
// (the same document /debug/obs serves), plus the run's trace tallies,
// merged pump counters, the leak-audit verdict, and the tracer overhead
// comparison.
type report struct {
	Metrics   obs.RegistrySnapshot `json:"metrics"`
	Pools     []obs.PoolBalance    `json:"pools"`
	Trace     map[string]int64     `json:"trace"`
	Pump      omnireduce.PumpStats `json:"pump"`
	PoolLeaks []obs.PoolBalance    `json:"pool_leaks,omitempty"`
	// UntracedNs / TracedNs time the identical sweep with tracing
	// disabled and enabled; OverheadPct is the relative delta. A small
	// sweep is noisy — make bench's paired benchmarks are the enforced
	// budget; this field tracks the trend alongside the snapshot.
	UntracedNs  int64   `json:"untraced_ns"`
	TracedNs    int64   `json:"traced_ns"`
	OverheadPct float64 `json:"overhead_pct"`
}

// runSweep executes the AllReduce sweep on a fresh cluster and returns
// elapsed time plus the merged pump counters.
func runSweep(workers, size, iters int, sparsity float64) (time.Duration, omnireduce.PumpStats) {
	cluster, err := omnireduce.NewLocalCluster(omnireduce.Options{Workers: workers})
	if err != nil {
		log.Fatalf("obsreport: %v", err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + w*7919)))
			data := make([]float32, size)
			for it := 0; it < iters; it++ {
				for i := range data {
					if rng.Float64() >= sparsity {
						data[i] = float32(rng.NormFloat64())
					} else {
						data[i] = 0
					}
				}
				if err := cluster.Worker(w).AllReduce(data); err != nil {
					log.Fatalf("obsreport: worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var pump omnireduce.PumpStats
	for w := 0; w < cluster.Size(); w++ {
		p := cluster.Worker(w).PumpStats()
		pump.Delivered += p.Delivered
		pump.StaleDrops += p.StaleDrops
		pump.OverflowDrops += p.OverflowDrops
		pump.BadPackets += p.BadPackets
	}
	if err := cluster.Close(); err != nil {
		log.Fatalf("obsreport: close: %v", err)
	}
	return elapsed, pump
}

// runJobsSweep runs a short multi-tenant sweep — two tenants, two jobs
// each, on one cluster — so the per-tenant registry metrics
// ("tenant:<name>:...") carry real numbers in the report.
func runJobsSweep(workers, size int) {
	cluster, err := omnireduce.NewLocalCluster(omnireduce.Options{Workers: workers})
	if err != nil {
		log.Fatalf("obsreport: %v", err)
	}
	var wg sync.WaitGroup
	for _, id := range []struct{ tenant, job string }{
		{"prod", "ranker"}, {"prod", "embedder"},
		{"research", "ablation-a"}, {"research", "ablation-b"},
	} {
		wg.Add(1)
		go func(tenant, jobName string) {
			defer wg.Done()
			jobs := make([]*omnireduce.Job, workers)
			for w := 0; w < workers; w++ {
				j, err := cluster.Worker(w).OpenJob(tenant, jobName)
				if err != nil {
					log.Fatalf("obsreport: open job %s/%s: %v", tenant, jobName, err)
				}
				jobs[w] = j
			}
			var jwg sync.WaitGroup
			for w := 0; w < workers; w++ {
				jwg.Add(1)
				go func(w int) {
					defer jwg.Done()
					data := make([]float32, size)
					for i := range data {
						data[i] = float32(w + i%7)
					}
					if err := jobs[w].AllReduce(data); err != nil {
						log.Fatalf("obsreport: job %s/%s worker %d: %v", tenant, jobName, w, err)
					}
				}(w)
			}
			jwg.Wait()
			for _, j := range jobs {
				j.Close()
			}
		}(id.tenant, id.job)
	}
	wg.Wait()
	if err := cluster.Close(); err != nil {
		log.Fatalf("obsreport: close: %v", err)
	}
}

// runStandbySweep runs iters dense AllReduces on two workers whose
// aggregator mirrors every committed result to a standby, under view
// epoch 1. The cluster is reliable, so those are the slots' final
// results. The public package has no seam for a standby in a local
// cluster, so the nodes are built from internal/core, as NewLocalCluster
// builds its own.
func runStandbySweep(size, iters int) {
	const workers, agg, standby = 2, 2, 3
	cfg := core.Config{Workers: workers, Aggregators: []int{agg}, Reliable: true,
		View: &protocol.View{Epoch: 1, Workers: []int{0, 1}, Aggregators: []int{agg}}}
	nw := transport.NewNetwork(workers, 4096)
	var conns []transport.Conn
	var aggs sync.WaitGroup
	start := func(id int, c core.Config) {
		conn := nw.AddNode(id)
		conns = append(conns, conn)
		a, err := core.NewAggregator(conn, c)
		if err != nil {
			log.Fatalf("obsreport: %v", err)
		}
		aggs.Add(1)
		go func() {
			defer aggs.Done()
			if err := a.Run(); err != nil {
				log.Fatalf("obsreport: aggregator %d: %v", id, err)
			}
		}()
	}
	sbCfg, primCfg := cfg, cfg
	sbCfg.Standby = true
	primCfg.CheckpointPeers = []int{standby}
	start(standby, sbCfg)
	start(agg, primCfg)
	var wg sync.WaitGroup
	ws := make([]*core.Worker, workers)
	for w := range ws {
		wk, err := core.NewWorker(nw.Conn(w), cfg)
		if err != nil {
			log.Fatalf("obsreport: %v", err)
		}
		ws[w] = wk
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]float32, size)
			for it := 0; it < iters; it++ {
				for i := range data {
					data[i] = float32(w + i%7 + 1)
				}
				if err := ws[w].AllReduce(data); err != nil {
					log.Fatalf("obsreport: standby sweep worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, wk := range ws {
		wk.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	aggs.Wait()
}

func main() {
	out := flag.String("o", "OBS_datapath.json", "output JSON path (empty to skip)")
	workers := flag.Int("workers", 4, "in-process workers")
	size := flag.Int("size", 1<<16, "tensor elements (float32)")
	sparsityF := flag.Float64("sparsity", 0.9, "fraction of zero elements")
	iters := flag.Int("iters", 4, "AllReduce iterations")
	flag.Parse()

	audit := obs.StartLeakAudit()

	// Baseline sweep: no tracer installed — the disabled path the
	// datapath's one-atomic-load budget is about. A warmup sweep first so
	// both timed runs see warm pools.
	obs.SetTracer(nil)
	runSweep(*workers, *size, *iters, *sparsityF)
	untraced, _ := runSweep(*workers, *size, *iters, *sparsityF)

	// Traced sweep: the report must show the trace path live, and the
	// drift tier separately proves it changes nothing.
	tracer := obs.NewCountingTracer()
	prev := obs.SetTracer(tracer)
	defer obs.SetTracer(prev)
	traced, pump := runSweep(*workers, *size, *iters, *sparsityF)

	// Multi-tenant sweep: four jobs across two tenants on one cluster, so
	// the per-tenant admission metrics appear in the tables and snapshot.
	runJobsSweep(*workers, *size/4)

	// Standby sweep: what mirroring to a standby adds per operation.
	ck := func(name string) int64 { return obs.Default.Counter(name).Load() }
	frames0, bytes0, stored0 := ck("agg_ck_frames_sent"), ck("agg_ck_bytes_sent"), ck("agg_ck_frames_stored")
	runStandbySweep(*size, *iters)
	ckFrames, ckBytes := ck("agg_ck_frames_sent")-frames0, ck("agg_ck_bytes_sent")-bytes0

	leaks := audit.Settle(2 * time.Second)
	overheadPct := 100 * (float64(traced-untraced) / float64(untraced))

	fmt.Printf("obsreport: %d workers x %d iters over %d elements (%.0f%% sparse)\n",
		*workers, *iters, *size, *sparsityF*100)
	fmt.Printf("obsreport: untraced %v, traced %v (delta %+.1f%%; enforced budget lives in make bench)\n",
		untraced.Round(time.Millisecond), traced.Round(time.Millisecond), overheadPct)
	var perFrame int64
	if ckFrames > 0 {
		perFrame = ckBytes / ckFrames
	}
	fmt.Printf("obsreport: standby sweep: %d final results mirrored per op in %d bytes per op (%d per frame), standby stored %d frames; view epoch %d\n",
		ckFrames/int64(*iters), ckBytes/int64(*iters), perFrame, ck("agg_ck_frames_stored")-stored0, obs.Default.Gauge("agg_view_epoch").Load())
	for _, t := range obs.Default.Tables("obs ") {
		t.Render(os.Stdout)
	}
	if t := obs.Default.TenantTable("obs "); t != nil {
		t.Render(os.Stdout)
	}
	tracer.Counters().Table("trace events").Render(os.Stdout)
	obs.PoolTable().Render(os.Stdout)
	fmt.Printf("pump: delivered %d, stale drops %d, overflow drops %d, bad packets %d\n",
		pump.Delivered, pump.StaleDrops, pump.OverflowDrops, pump.BadPackets)
	if err := obs.LeaksErr(leaks); err != nil {
		log.Fatalf("obsreport: %v", err)
	}
	fmt.Println("pool balance clean: every GetBuf matched by a PutBuf")

	if *out == "" {
		return
	}
	trace := make(map[string]int64)
	for ev := obs.Event(0); ev < obs.NumEvents; ev++ {
		if n := tracer.Count(ev); n != 0 {
			trace[ev.String()] = n
		}
	}
	doc := report{
		Metrics:     obs.Default.Snapshot(),
		Pools:       obs.PoolBalances(),
		Trace:       trace,
		Pump:        pump,
		PoolLeaks:   leaks,
		UntracedNs:  int64(untraced),
		TracedNs:    int64(traced),
		OverheadPct: overheadPct,
	}
	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		log.Fatalf("obsreport: %v", err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		log.Fatalf("obsreport: %v", err)
	}
	fmt.Fprintf(os.Stderr, "obsreport: wrote %s\n", *out)
}
