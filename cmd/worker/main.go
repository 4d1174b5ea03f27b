// Command worker runs an OmniReduce worker for cross-process or
// cross-host benchmarking: it performs a number of AllReduce operations
// over synthetic tensors of a chosen sparsity and reports throughput,
// mirroring the paper's microbenchmark methodology (§6.1).
//
// Example (2 workers, 1 aggregator on the same host):
//
//	aggregator -id 2 -workers 2 -nodes 0=:7000,1=:7001,2=:7002 &
//	worker -id 0 -workers 2 -nodes 0=:7000,1=:7001,2=:7002 -size 25000000 -sparsity 0.99 &
//	worker -id 1 -workers 2 -nodes 0=:7000,1=:7001,2=:7002 -size 25000000 -sparsity 0.99
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"omnireduce"
	"omnireduce/internal/cli"
	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
)

func main() {
	id := flag.Int("id", -1, "this worker's node id (0..workers-1)")
	workers := flag.Int("workers", 0, "number of workers in the job")
	aggregators := flag.Int("aggregators", 1, "number of aggregator shards")
	nodes := flag.String("nodes", "", "comma-separated id=host:port address book")
	transportName := flag.String("transport", "tcp", "tcp or udp")
	size := flag.Int("size", 25_000_000, "tensor elements (float32)")
	sparsityF := flag.Float64("sparsity", 0.9, "fraction of zero elements")
	iters := flag.Int("iters", 20, "measured iterations")
	warmup := flag.Int("warmup", 3, "warm-up iterations")
	blockSize, fusion, streams := cli.ShapeFlags(flag.CommandLine)
	seed := flag.Int64("seed", 1, "tensor seed (same on all workers for overlap control)")
	tenantName := flag.String("tenant", "", "tenant name for a multi-tenant aggregator (empty = legacy default job)")
	jobName := flag.String("job", "", "job name within -tenant (required when -tenant is set)")
	viewEpoch := flag.Uint("view-epoch", 0, "starting membership view epoch (> 0 binds connections to the epoch; must match the aggregators)")
	obsAddr := flag.String("obs", "", "serve /debug/obs, /debug/vars, and /debug/pprof on this address (empty = off)")
	flag.Parse()

	if *obsAddr != "" {
		srv := obs.ServeDebug(*obsAddr, obs.Default)
		defer srv.Close()
		log.Printf("worker: observability endpoint on http://%s/debug/obs", *obsAddr)
	}

	addrs, err := cli.ParseNodes(*nodes)
	if err != nil {
		log.Fatalf("worker: %v", err)
	}
	if *id < 0 || *id >= *workers {
		log.Fatalf("worker: -id must be in [0, workers)")
	}
	opts := omnireduce.Options{
		Workers:     *workers,
		Aggregators: *aggregators,
		BlockSize:   *blockSize,
		FusionWidth: *fusion,
		Streams:     *streams,
		ViewEpoch:   uint32(*viewEpoch),
	}
	var w *omnireduce.Worker
	switch *transportName {
	case "tcp":
		w, err = omnireduce.NewTCPWorker(*id, addrs, opts)
	case "udp":
		w, err = omnireduce.NewUDPWorker(*id, addrs, opts)
	default:
		log.Fatalf("worker: unknown transport %q", *transportName)
	}
	if err != nil {
		log.Fatalf("worker: %v", err)
	}
	defer w.Close()

	// With -tenant/-job the collectives run inside that job's tensor-ID
	// namespace, so many such workers can share one aggregator fleet.
	// allReduce dispatches to the job session when one is open.
	allReduce := w.AllReduce
	if *tenantName != "" || *jobName != "" {
		if *tenantName == "" || *jobName == "" {
			log.Fatalf("worker: -tenant and -job must be set together")
		}
		job, err := w.OpenJob(*tenantName, *jobName)
		if err != nil {
			log.Fatalf("worker: open job %s/%s: %v", *tenantName, *jobName, err)
		}
		defer job.Close()
		log.Printf("worker %d: joined job %s/%s (namespace %d)", *id, *tenantName, *jobName, job.Namespace())
		allReduce = job.AllReduce
	}

	rng := rand.New(rand.NewSource(*seed + int64(*id)*7919))
	data := make([]float32, *size)
	regen := func() {
		for i := range data {
			if rng.Float64() >= *sparsityF {
				data[i] = float32(rng.NormFloat64())
			} else {
				data[i] = 0
			}
		}
	}

	var times []float64
	for it := 0; it < *warmup+*iters; it++ {
		regen()
		start := time.Now()
		if err := allReduce(data); err != nil {
			log.Fatalf("worker: AllReduce: %v", err)
		}
		if it >= *warmup {
			times = append(times, time.Since(start).Seconds())
		}
	}
	s := metrics.Summarize(times)
	bytes := float64(*size) * 4
	fmt.Printf("worker %d: %d iters, tensor %s, sparsity %.0f%%\n",
		*id, *iters, metrics.FormatBytes(bytes), *sparsityF*100)
	fmt.Printf("  mean %s  p50 %s  p99 %s  goodput %.2f Gbps\n",
		metrics.FormatDuration(s.Mean), metrics.FormatDuration(s.P50),
		metrics.FormatDuration(s.P99), bytes*8/s.Mean/1e9)
	st := w.Stats()
	fmt.Printf("  packets %d  data-blocks %d  retransmits %d  acks %d\n",
		st.PacketsSent, st.BlocksSent, st.Retransmits, st.AcksSent)
	ps := w.PumpStats()
	fmt.Printf("  pump: delivered %d  stale %d  overflow %d  bad %d\n",
		ps.Delivered, ps.StaleDrops, ps.OverflowDrops, ps.BadPackets)
	for _, tbl := range obs.Default.Tables("obs ") {
		tbl.Render(os.Stdout)
	}
	obs.PoolTable().Render(os.Stdout)
}
