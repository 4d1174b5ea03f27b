// Command aggregator runs a standalone OmniReduce aggregator node for
// cross-process or cross-host deployments.
//
// The address book lists every node as id=host:port, workers first
// (0..workers-1), aggregators after. The aggregator replies to workers
// over their inbound connections, so with the TCP transport only the
// aggregator addresses must be reachable; worker entries may be omitted.
// Example (1 aggregator, 2 workers):
//
//	aggregator -id 2 -workers 2 -aggregators 1 \
//	    -nodes 0=10.0.0.1:7000,1=10.0.0.2:7000,2=10.0.0.3:7000 \
//	    -transport tcp
//
// The matching workers are started with cmd/worker (or any program using
// the omnireduce package with the same Options and address book).
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"omnireduce"
	"omnireduce/internal/cli"
	"omnireduce/internal/obs"
)

func main() {
	id := flag.Int("id", -1, "this aggregator's node id (>= workers)")
	workers := flag.Int("workers", 0, "number of workers in the job")
	aggregators := flag.Int("aggregators", 1, "number of aggregator shards")
	nodes := flag.String("nodes", "", "comma-separated id=host:port address book")
	transportName := flag.String("transport", "tcp", "tcp (reliable) or udp (loss recovery)")
	blockSize, fusion, streams := cli.ShapeFlags(flag.CommandLine)
	quotaFile := flag.String("quota-file", "", "JSON per-tenant quota/weight policy (see internal/cli.QuotaFile)")
	viewEpoch := flag.Uint("view-epoch", 0, "starting membership view epoch (> 0 enables dynamic membership and epoch enforcement)")
	checkpointPeers := flag.String("checkpoint-peers", "", "comma-separated standby node ids to mirror every committed result to, ahead of the workers")
	standby := flag.Bool("standby", false, "start passive: store mirrored results and refuse data until activated into a view (requires -view-epoch)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight rounds on SIGTERM before closing anyway")
	obsAddr := flag.String("obs", "", "serve /debug/obs, /debug/vars, and /debug/pprof on this address (empty = off)")
	flag.Parse()

	if *obsAddr != "" {
		srv := obs.ServeDebug(*obsAddr, obs.Default)
		defer srv.Close()
		log.Printf("aggregator: observability endpoint on http://%s/debug/obs", *obsAddr)
	}

	addrs, err := cli.ParseNodes(*nodes)
	if err != nil {
		log.Fatalf("aggregator: %v", err)
	}
	if *id < *workers || *workers <= 0 {
		log.Fatalf("aggregator: -id must be >= -workers (worker ids come first)")
	}
	ckPeers, err := cli.ParseIDList(*checkpointPeers)
	if err != nil {
		log.Fatalf("aggregator: -checkpoint-peers: %v", err)
	}
	opts := omnireduce.Options{
		Workers:         *workers,
		Aggregators:     *aggregators,
		BlockSize:       *blockSize,
		FusionWidth:     *fusion,
		Streams:         *streams,
		ViewEpoch:       uint32(*viewEpoch),
		CheckpointPeers: ckPeers,
		Standby:         *standby,
	}
	if *standby {
		log.Printf("aggregator: standby mode — refusing data until activated into a view")
	}
	if *quotaFile != "" {
		tcfg, err := cli.ParseQuotaFile(*quotaFile)
		if err != nil {
			log.Fatalf("aggregator: %v", err)
		}
		opts.DefaultQuota = omnireduce.TenantQuota(tcfg.Default)
		opts.Tenants = make(map[string]omnireduce.TenantQuota, len(tcfg.Tenants))
		for name, q := range tcfg.Tenants {
			opts.Tenants[name] = omnireduce.TenantQuota(q)
		}
		log.Printf("aggregator: tenancy policy loaded from %s (%d tenants)", *quotaFile, len(tcfg.Tenants))
	}

	var agg *omnireduce.Aggregator
	switch *transportName {
	case "tcp":
		agg, err = omnireduce.NewTCPAggregator(*id, addrs, opts)
	case "udp":
		agg, err = omnireduce.NewUDPAggregator(*id, addrs, opts)
	default:
		log.Fatalf("aggregator: unknown transport %q", *transportName)
	}
	if err != nil {
		log.Fatalf("aggregator: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		// Graceful drain: refuse new admissions (workers get typed
		// ErrAggregatorDraining), let in-flight rounds finish, then close.
		// A second signal skips the drain.
		log.Printf("aggregator: draining (up to %v; signal again to force)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sig
			log.Printf("aggregator: forced shutdown")
			cancel()
		}()
		if err := agg.Drain(ctx); err != nil {
			log.Printf("aggregator: drain incomplete: %v", err)
		} else {
			log.Printf("aggregator: drained cleanly")
		}
		agg.Close()
	}()

	// The bound address is part of the line so that a supervisor (or a
	// test) that started this node on port 0 can read where it listens.
	log.Printf("aggregator %d serving %d workers over %s on %s", *id, *workers, *transportName, agg.Addr())
	if err := agg.Run(); err != nil {
		log.Fatalf("aggregator: %v", err)
	}
}
