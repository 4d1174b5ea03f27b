// Command bench is the repository's benchmark: six closed-loop workloads
// driven through the real library, seven end-to-end figures per workload,
// every result verified, and (with -trace 1) a per-layer time budget
// measured from here, outside the library. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"omnireduce/internal/transport"
)

const (
	// trials is how many measured stretches one run is cut into; a metric's
	// reported value is its median over them.
	trials = 5
	// setupReps is how many times a run sets its workload up from scratch;
	// setup_s is the median.
	setupReps = 5
)

// metricSpec names a metric; BENCHMARK.json repeats these and adds the
// regression bounds (bench_test.go holds the two together).
type metricSpec struct {
	name, unit string
	better     string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"goodput_mb_s", "MB/s", "higher"},
	{"wire_bytes_per_op", "bytes", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// informational are printed and written to -out but are not part of the
// BENCHMARK.json contract: op_ms_p99 does not repeat within a tenth on a
// shared 2-core box, and failed_ops_share is 0 on every healthy run, which
// the contract cannot bound as a share of the parent's value (its
// attempted/failed/correct fields carry it instead).
var informational = []metricSpec{
	{"op_ms_p99", "ms", "lower"},
	{"failed_ops_share", "ratio", "lower"},
}

// value is one reported figure.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one workload's run produced.
type result struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Traffic   string           `json:"traffic"`
	Achieved  float64          `json:"achieved_sparsity"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Budget    []budgetRow      `json:"budget,omitempty"`
}

// budgetRow is one line of a traced run's time budget.
type budgetRow struct {
	Rung  string  `json:"rung"`
	Ms    float64 `json:"ms_per_op"`
	Share float64 `json:"share_of_op_ms_p50"`
}

type config struct {
	seed     int64
	seconds  float64 // per workload
	deadline time.Duration
	shrink   int    // divides every tensor size; 1 outside tests
	outDir   string // where traced runs write their span files
}

func traffic(wl *workload) string {
	if wl.udp {
		return "loopback UDP on 127.0.0.1 (no real link)"
	}
	return "in-process channel fabric"
}

// bare deploys wl on its own fabric with nothing wrapped: what every
// untraced measurement runs on.
func bare(wl *workload, in *inputs) (*rig, error) { return newRig(wl, in, fabricOf(wl), nil) }

// setUp builds wl's runner setupReps times, keeps the last, and returns
// the median set-up time: inputs, reference sum, cluster and sockets,
// warm-up ops — everything between process start and the first timed op
// that is this workload's own.
func setUp(wl *workload, cfg config) (*runner, value, error) {
	var r *runner
	var took []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, value{}, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = newRunner(wl, cfg.seed, cfg.deadline, bare); err != nil {
			return nil, value{}, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	r.settle()
	return r, value{Value: median(took), Unit: "s", Samples: len(took)}, nil
}

// runUntraced measures the end-to-end metrics of wls. Trials are
// interleaved round-robin across the workloads so that machine drift
// during the run lands on all of them alike.
func runUntraced(wls []*workload, cfg config) ([]*result, error) {
	runners := make([]*runner, len(wls))
	results := make([]*result, len(wls))
	defer func() {
		for _, r := range runners {
			if r != nil {
				r.close()
			}
		}
	}()
	for i, wl := range wls {
		r, setup, err := setUp(wl, cfg)
		if err != nil {
			return nil, err
		}
		runners[i] = r
		results[i] = &result{Name: wl.name, Why: wl.why, Traffic: traffic(wl), Achieved: r.in.achieved,
			Metrics: map[string]value{"setup_s": setup}}
	}
	per := make([][]trial, len(wls))
	d := time.Duration(cfg.seconds / trials * float64(time.Second))
	for t := 0; t < trials; t++ {
		for i, r := range runners {
			per[i] = append(per[i], r.runTrial(d))
		}
	}
	for i, wl := range wls {
		reduceTrials(results[i], per[i], runners[i].in.opBytes)
		// At test sizes the unconditional bootstrap round (the first block
		// of every column of every stream: 32 blocks per worker) outweighs
		// 1% of a small tensor, so the guard is for real runs.
		if cfg.shrink == 1 {
			if err := wireGuard(wl, results[i]); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// reduceTrials folds a workload's trials into res: each end-to-end metric
// is the median of its per-trial values, with the op count as its sample
// size.
func reduceTrials(res *result, ts []trial, opBytes int) {
	byName := map[string][]float64{}
	ok := 0
	for i := range ts {
		res.Attempted += ts[i].ops()
		res.Failed += ts[i].failed
		ok += len(ts[i].spans)
		for name, v := range ts[i].metrics(opBytes) {
			byName[name] = append(byName[name], v)
		}
	}
	for _, spec := range append(append([]metricSpec(nil), endToEnd[1:]...), informational...) {
		res.Metrics[spec.name] = value{Value: median(byName[spec.name]), Unit: spec.unit, Samples: ok}
	}
	res.Metrics["failed_ops_share"] = value{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", Samples: res.Attempted}
}

// wireGuard holds sparse99_chan to the paper's claim in the numbers later
// PRs will cite: its bytes on the wire are at most 3% of dense_chan's.
// dense_chan sends every block of the same tensor, so 4*elems*workers
// payload bytes is a floor under its wire bytes; staying within 3% of the
// floor needs no second workload in the run.
func wireGuard(wl *workload, res *result) error {
	if !wl.blockAligned || res.Failed > 0 {
		return nil
	}
	floor := float64(4 * wl.elems * workers)
	if got := res.Metrics["wire_bytes_per_op"].Value; got > 0.03*floor {
		return fmt.Errorf("%s: %.0f wire bytes/op is more than 3%% of the dense payload (%.0f): the workload is not block-sparse on the wire", wl.name, got, floor)
	}
	return nil
}

// environment is recorded with every -out document.
func environment(cfg config) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"gogc":               gogc,
		"gomemlimit":         debug.SetMemoryLimit(-1),
		"seed":               cfg.seed,
		"seconds":            cfg.seconds,
		"trials":             trials,
		"workers":            workers,
		"op_deadline":        cfg.deadline.String(),
		"batching_supported": transport.BatchingSupported(),
	}
}

func printTable(results []*result, specs []metricSpec) {
	fmt.Printf("%-16s", "workload")
	for _, s := range specs {
		fmt.Printf(" %18s", s.name+"("+s.unit+")")
	}
	fmt.Printf(" %9s\n", "ops")
	for _, res := range results {
		fmt.Printf("%-16s", res.Name)
		for _, s := range specs {
			fmt.Printf(" %18.4f", res.Metrics[s.name].Value)
		}
		fmt.Printf(" %9d\n", res.Attempted)
	}
}

// contractLine is the one JSON object the driver reads from the last line
// of stdout: exactly the metrics BENCHMARK.json lists for this kind of run.
func contractLine(res *result, specs []metricSpec) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, map[string]mv{}}
	for _, s := range specs {
		out.Metrics[s.name] = mv{res.Metrics[s.name].Value, s.unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload by name (default: all six, trials interleaved)")
		seed      = flag.Int64("seed", 1, "input seed; the same seed gives the same tensors")
		seconds   = flag.Float64("seconds", 10, "measured seconds per workload")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and the time budget")
		out       = flag.String("out", "", "also write the results as one JSON document to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced benchmark twice and hold the two to BENCHMARK.json's bounds")
		deadline  = flag.Duration("deadline", 5*time.Second, "per-op deadline; an op that exceeds it is a failed op")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Paths are relative to the checkout root, where run.sh starts us.
	cfg := config{seed: *seed, seconds: *seconds, deadline: *deadline, shrink: 1, outDir: "bench/out"}
	wls := allWorkloads(cfg.shrink)
	if *name != "" {
		var names []string
		var one []*workload
		for _, wl := range wls {
			names = append(names, wl.name)
			if wl.name == *name {
				one = append(one, wl)
			}
		}
		if one == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
		}
		wls = one
	}

	if *selfcheck {
		if err := selfCheck(wls, cfg, "BENCHMARK.json"); err != nil {
			fatal(err)
		}
		return
	}

	var results []*result
	var err error
	specs := endToEnd
	if *trace != 0 {
		specs = perLayer
		results, err = runTraced(wls, cfg)
	} else {
		results, err = runUntraced(wls, cfg)
	}
	if err != nil {
		fatal(err)
	}
	if *trace != 0 {
		printLayers(results)
	} else {
		printTable(results, append(append([]metricSpec(nil), endToEnd...), informational...))
	}
	if *out != "" {
		doc, err := json.MarshalIndent(map[string]any{"env": environment(cfg), "traced": *trace != 0, "workloads": results}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if len(results) == 1 {
		fmt.Println(contractLine(results[0], specs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
