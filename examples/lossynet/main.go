// Lossynet: OmniReduce under injected network chaos.
//
// The paper's DPDK data path runs over unreliable datagrams; Algorithm 2
// (Appendix A) recovers from loss with versioned slots, acks, and worker
// retransmission timers. This example exercises that recovery two ways:
//
//  1. Over real loopback UDP sockets, with a multi-phase chaos schedule
//     (uniform + Gilbert–Elliott burst loss, duplication, reordering,
//     delay) injected by transport.ChaosFabric — showing the reduction
//     completes exactly despite every failure mode at once.
//
//  2. As a seeded deterministic replay: the same scenario run twice over
//     the in-process fabric makes identical injection decisions, so a
//     failing chaos run can be replayed exactly from its seed.
//
//     go run ./examples/lossynet
//
// With -dump-dir the UDP chaos run also records every slot event into a
// flight recorder and writes the dump (tagged with the workload's exact
// expected look-ahead skip ratio) for cmd/tracetool to merge and check —
// the `make timeline` tier. In that mode the inputs are block-sparse with
// an exact per-worker zero-block count, so the measured skip ratio is
// deterministic.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"omnireduce/internal/core"
	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

func main() {
	dumpDir := flag.String("dump-dir", "", "write a flight-recorder dump here (block-sparse workload, skips the replay demo)")
	density := flag.Float64("density", 0.25, "fraction of non-zero blocks with -dump-dir")
	flag.Parse()
	udpChaos(*dumpDir, *density)
	if *dumpDir == "" {
		seededReplay()
	}
}

// chaosScenario is the shared injection schedule: an opening storm of loss
// and duplication, a reordering phase, a delay phase with background loss,
// then light residual loss for the remainder.
func chaosScenario(seed int64) transport.Scenario {
	return transport.Scenario{
		Seed:   seed,
		Window: 100,
		Phases: []transport.Phase{
			{Packets: 50, Drop: 0.04, Dup: 0.04,
				Burst: &transport.Burst{PEnter: 0.02, PExit: 0.3, DropBad: 0.8}},
			{Packets: 40, Reorder: 0.2, ReorderSpan: 2},
			{Packets: 40, Drop: 0.02, Delay: 2 * time.Millisecond, DelayP: 0.3},
			{Drop: 0.01},
		},
	}
}

// udpChaos runs a 3-worker AllReduce over real UDP sockets routed through
// the chaos fabric. With dumpDir set it records the run's slot events and
// writes the flight dump for the timeline tier.
func udpChaos(dumpDir string, density float64) {
	const (
		workers  = 3
		elements = 200_000
	)
	cfg := core.Config{
		Workers:           workers,
		Aggregators:       []int{workers},
		Reliable:          false, // Algorithm 2 active
		RetransmitTimeout: 20 * time.Millisecond,
		BlockSize:         128,
		FusionWidth:       8,
		Streams:           4,
	}
	var fr *obs.FlightRecorder
	if dumpDir != "" {
		fr = obs.NewFlightRecorder(-1, 1<<15)
		prev := obs.SetTracer(fr)
		defer obs.SetTracer(prev)
	}

	// Bind every node on an ephemeral UDP port, then exchange addresses.
	eps := make([]*transport.UDP, workers+1)
	for i := range eps {
		u, err := transport.NewUDP(i, map[int]string{i: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		eps[i] = u
	}
	for i, u := range eps {
		for j, v := range eps {
			if i != j {
				if err := u.RegisterPeer(j, v.Addr()); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Route every endpoint through one seeded chaos fabric.
	fabric := transport.NewChaosFabric(chaosScenario(2021))
	conns := make([]transport.Conn, workers+1)
	for i, u := range eps {
		// Close the wrapped endpoint, not the socket under it: the fabric
		// may still hold a reordered datagram of this sender's in a pooled
		// buffer, and only its own Close gives that back.
		c := fabric.Wrap(u)
		defer c.Close()
		conns[i] = c
	}

	agg, err := core.NewAggregator(conns[workers], cfg)
	if err != nil {
		log.Fatal(err)
	}
	go agg.Run()

	// Random sparse inputs and the reference sum. The default run is
	// element-sparse; dump mode is block-sparse with an exact zero-block
	// count so the skip ratio is a deterministic function of density.
	rng := rand.New(rand.NewSource(9))
	inputs := make([][]float32, workers)
	expected := make([]float32, elements)
	for w := range inputs {
		inputs[w] = make([]float32, elements)
		if dumpDir != "" {
			fillBlockSparse(rng, inputs[w], cfg.BlockSize, density)
		} else {
			for i := range inputs[w] {
				if rng.Float64() < 0.05 {
					inputs[w][i] = float32(rng.NormFloat64())
				}
			}
		}
		for i, v := range inputs[w] {
			expected[i] += v
		}
	}
	expSkip := expectedSkipRatio(inputs, cfg.BlockSize)

	ws := make([]*core.Worker, workers)
	for i := range ws {
		w, err := core.NewWorker(conns[i], cfg)
		if err != nil {
			log.Fatal(err)
		}
		ws[i] = w
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ws[i].AllReduce(inputs[i]); err != nil {
				log.Fatalf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var maxErr float64
	for w := range inputs {
		for i := range expected {
			d := float64(inputs[w][i]) - float64(expected[i])
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	ev := fabric.Counts()
	fmt.Printf("UDP AllReduce over %d workers, %d elements, chaos schedule active\n",
		workers, elements)
	fmt.Printf("completed in %v; max |error| = %.2g\n", elapsed.Round(time.Millisecond), maxErr)
	fmt.Printf("injected: %d dropped (%d burst), %d duplicated, %d reordered, %d delayed\n",
		ev.Dropped, ev.BurstDrops, ev.Duplicated, ev.Reordered, ev.Delayed)

	// Per-event recovery metrics and receive-pump routing, summed over the
	// workers, then the pool balance: under chaos the pump may drop
	// overflow and stale traffic, but never a pooled buffer.
	var rec protocol.WorkerStats
	var pump core.PumpStats
	for _, w := range ws {
		p := w.PumpSnapshot()
		rec.Add(w.Stats.Snapshot())
		pump.Delivered += p.Delivered
		pump.StaleDrops += p.StaleDrops
		pump.OverflowDrops += p.OverflowDrops
		pump.BadPackets += p.BadPackets
	}
	t := metrics.NewTable("loss recovery and receive pump (workers)", "event", "count")
	t.AddRow("retransmits", rec.Retransmits)
	t.AddRow("backoffs", rec.Backoffs)
	t.AddRow("acks_sent", rec.AcksSent)
	t.AddRow("stale_results_filtered", rec.StaleResults)
	t.AddRow("pump_delivered", pump.Delivered)
	t.AddRow("pump_stale_drops", pump.StaleDrops)
	t.AddRow("pump_overflow_drops", pump.OverflowDrops)
	t.AddRow("pump_bad_packets", pump.BadPackets)
	t.Render(os.Stdout)
	obs.PoolTable().Render(os.Stdout)

	if dumpDir != "" {
		d := fr.Dump()
		d.Tags = map[string]string{
			"run":                 "lossynet-udp-chaos",
			"workers":             strconv.Itoa(workers),
			"block_density":       fmt.Sprintf("%.4f", density),
			"expected_skip_ratio": fmt.Sprintf("%.6f", expSkip),
		}
		path := filepath.Join(dumpDir, "flight.json")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := d.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flight dump: %s (%d records, expected skip ratio %.4f)\n",
			path, len(d.Records), expSkip)
	}
}

// fillBlockSparse zeroes an exact count of blocks — round((1-density)*nb),
// chosen by a seeded shuffle — and fills the rest with random values, so
// the workload's skip ratio is deterministic rather than sampled.
func fillBlockSparse(rng *rand.Rand, data []float32, bs int, density float64) {
	nb := (len(data) + bs - 1) / bs
	perm := rng.Perm(nb)
	zeros := int(float64(nb)*(1-density) + 0.5)
	zero := make(map[int]bool, zeros)
	for _, b := range perm[:zeros] {
		zero[b] = true
	}
	for b := 0; b < nb; b++ {
		if zero[b] {
			continue
		}
		end := (b + 1) * bs
		if end > len(data) {
			end = len(data)
		}
		for i := b * bs; i < end; i++ {
			// Offset from zero so a non-zero block can never be all zeros.
			data[i] = float32(rng.NormFloat64()) + 3
		}
	}
}

// expectedSkipRatio is the exact look-ahead skip ratio the protocol
// machines will produce for these inputs: every zero block is skipped
// exactly once per worker (a zero first-in-column block is left out of the
// bootstrap packet like any other), so it is the mean block sparsity.
func expectedSkipRatio(inputs [][]float32, bs int) float64 {
	var sum float64
	for _, in := range inputs {
		sum += tensor.ComputeBitmap(tensor.FromSlice(in), bs).BlockSparsity()
	}
	return sum / float64(len(inputs))
}

// seededReplay demonstrates deterministic replay: the same scenario over
// the in-process fabric twice, byte-identical results and identical
// injection decisions within the scenario window.
func seededReplay() {
	const workers = 3
	cfg := core.Config{
		Workers:            workers,
		Reliable:           false,
		DeterministicOrder: true,
		BlockSize:          32,
		FusionWidth:        4,
		Streams:            2,
		RetransmitTimeout:  3 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(17))
	inputs := make([][]float32, workers)
	for w := range inputs {
		inputs[w] = make([]float32, 32*512)
		for i := range inputs[w] {
			inputs[w][i] = float32(rng.NormFloat64())
		}
	}
	sc := chaosScenario(2021)

	first, err := core.RunChaosScenario(cfg, sc, inputs, 0)
	if err != nil {
		log.Fatal(err)
	}
	replay, err := core.RunChaosScenario(cfg, sc, inputs, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nseeded replay (seed %d): exact=%v/%v, window events %d/%d, identical=%v\n",
		sc.Seed, first.Exact, replay.Exact,
		first.WindowEvents, replay.WindowEvents,
		first.WindowEvents == replay.WindowEvents)
	first.ObsReport().Render(os.Stdout)
}
