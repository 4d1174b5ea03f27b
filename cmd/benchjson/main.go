// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON performance record, preserving a baseline across reruns so
// the datapath's perf trajectory is tracked from PR to PR.
//
// Usage:
//
//	go test -bench ... -benchmem ./... | go run ./cmd/benchjson -o BENCH_datapath.json
//
// The output file holds two sections: "baseline" (the first recording
// ever written to that path, kept verbatim on every rerun) and "current"
// (this run). Comparing the two shows the cumulative effect of perf work
// since the baseline was captured.
//
// Repeated runs of the same benchmark (from -count=N or repeated
// invocations) are deduplicated before recording: each metric keeps its
// best observed value (lowest ns/op, allocs/op and wire-B/op, highest MB/s), so
// noisy outliers on a shared box do not pollute the trajectory.
//
// With -gate "prefix1,prefix2", benchjson additionally acts as a
// regression gate: each new current entry whose name starts with a
// listed prefix is compared against the same-named entry in the
// previous recording's "current" section, and the command exits nonzero
// if allocs/op grew by more than -gate-pct percent (default 10) or MB/s
// shrank by more than -gate-mbs-pct percent (default 35; throughput is
// far noisier than allocation counts on a shared box). The file is
// still written first, so the offending numbers are on disk for
// inspection.
//
// BenchmarkCheckpointTax reports tax-x, the time of a collective with a
// standby over the same collective without one, in a row per mode. It is
// recorded like the other metrics and, whatever the flags, may not exceed
// maxCheckpointTax: failover has to stay nearly free when nothing fails.
// The reliable row, whose primary mirrors only final results, may not
// exceed maxReliableCheckpointTax.
// BenchmarkTracerOverhead likewise reports tracer-x, the median traced
// round over the median untraced one on the same cluster, and may not
// exceed maxTracerOverhead: a live flight recorder costs at most 5%.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_op"`
	MBPerS   float64 `json:"mb_s,omitempty"`
	BPerOp   int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	// WireBPerOp is the live collectives' custom metric: encoded bytes the
	// workers sent per operation (an exact count unless a datagram was
	// retransmitted).
	WireBPerOp float64 `json:"wire_b_op,omitempty"`
	// TaxX is BenchmarkCheckpointTax's ratio (see the package comment).
	TaxX float64 `json:"tax_x,omitempty"`
	// TracerX is BenchmarkTracerOverhead's ratio (see the package comment).
	TracerX float64 `json:"tracer_x,omitempty"`
}

// maxCheckpointTax is the most a standby may cost a collective,
// maxReliableCheckpointTax the most it may cost one in reliable mode
// (reliableTaxRow), and maxTracerOverhead the most a live flight recorder
// may.
const (
	maxCheckpointTax         = 2.0
	maxReliableCheckpointTax = 1.15
	reliableTaxRow           = "BenchmarkCheckpointTax/reliable"
	maxTracerOverhead        = 1.05
)

// File is the on-disk layout.
type File struct {
	Note     string   `json:"note"`
	Baseline []Result `json:"baseline"`
	Current  []Result `json:"current"`
}

// benchLine matches one `go test -bench` result row, e.g.
//
//	BenchmarkPacketEncode-8  500000  2101 ns/op  1948.87 MB/s  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	r := Result{Name: m[1]}
	r.Iters, _ = strconv.ParseInt(m[2], 10, 64)
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BPerOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		case "wire-B/op":
			r.WireBPerOp = v
		case "tax-x":
			r.TaxX = v
		case "tracer-x":
			r.TracerX = v
		}
	}
	return r, r.NsPerOp > 0
}

// dedupe collapses repeated runs of the same benchmark into one entry,
// preserving first-appearance order and keeping the best observed value
// per metric: lowest ns/op (and its iteration count), highest MB/s,
// lowest B/op, allocs/op and wire-B/op. Best-of-N per metric is the standard
// answer to measurement noise — the fastest run is the one least
// perturbed by the machine, and the leanest run is the one the GC
// didn't interrupt (a pool cleared mid-run shows up as a burst of
// re-warming allocations that says nothing about the code).
func dedupe(results []Result) []Result {
	idx := make(map[string]int, len(results))
	out := results[:0:0]
	for _, r := range results {
		i, ok := idx[r.Name]
		if !ok {
			idx[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		b := &out[i]
		if r.NsPerOp < b.NsPerOp {
			b.NsPerOp, b.Iters = r.NsPerOp, r.Iters
		}
		if r.MBPerS > b.MBPerS {
			b.MBPerS = r.MBPerS
		}
		if r.BPerOp < b.BPerOp {
			b.BPerOp = r.BPerOp
		}
		if r.AllocsOp < b.AllocsOp {
			b.AllocsOp = r.AllocsOp
		}
		if r.WireBPerOp < b.WireBPerOp {
			b.WireBPerOp = r.WireBPerOp
		}
		if r.TaxX < b.TaxX {
			b.TaxX = r.TaxX
		}
		if r.TracerX < b.TracerX {
			b.TracerX = r.TracerX
		}
	}
	return out
}

// allocGateSlack is the absolute allocs/op slack added on top of the
// percentage gate. Tiny benchmarks sit at a handful of allocations where
// a single extra object is a >10% "regression"; the slack keeps the gate
// meaningful for the big datapath numbers without tripping on noise in
// the small ones.
const allocGateSlack = 8

// checkGate compares the new recording against the previous one for
// every benchmark whose name starts with one of the pinned prefixes.
// A benchmark regresses when allocs/op grows past old*(1+pct/100)+slack
// or MB/s (when both runs report it) falls below old*(1-mbsPct/100).
// The two tolerances differ because the metrics' noise differs:
// allocation counts are near-deterministic (best-of-N filters the GC's
// pool clears), while wall-clock throughput on a shared box swings with
// neighbor load in phases longer than a benchmark invocation — the MB/s
// gate is a backstop against structural collapses, not a 10% ratchet.
// Benchmarks present on only one side are skipped: the gate guards
// known quantities, it does not enforce suite membership.
func checkGate(newCur, oldCur []Result, prefixes []string, pct, mbsPct float64) []error {
	old := make(map[string]Result, len(oldCur))
	for _, r := range oldCur {
		old[r.Name] = r
	}
	var errs []error
	for _, r := range newCur {
		pinned := false
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(r.Name, p) {
				pinned = true
				break
			}
		}
		if !pinned {
			continue
		}
		o, ok := old[r.Name]
		if !ok {
			continue
		}
		if limit := int64(float64(o.AllocsOp)*(1+pct/100)) + allocGateSlack; r.AllocsOp > limit {
			errs = append(errs, fmt.Errorf("%s: allocs/op regressed %d -> %d (limit %d, +%.0f%%+%d)",
				r.Name, o.AllocsOp, r.AllocsOp, limit, pct, int64(allocGateSlack)))
		}
		if o.MBPerS > 0 && r.MBPerS > 0 {
			if floor := o.MBPerS * (1 - mbsPct/100); r.MBPerS < floor {
				errs = append(errs, fmt.Errorf("%s: MB/s regressed %.2f -> %.2f (floor %.2f, -%.0f%%)",
					r.Name, o.MBPerS, r.MBPerS, floor, mbsPct))
			}
		}
	}
	return errs
}

func main() {
	out := flag.String("o", "BENCH_datapath.json", "output JSON path")
	gate := flag.String("gate", "", "comma-separated benchmark name prefixes to gate against the previous recording")
	gatePct := flag.Float64("gate-pct", 10, "max %% regression in allocs/op for gated benchmarks")
	gateMBsPct := flag.Float64("gate-mbs-pct", 35, "max %% regression in MB/s for gated benchmarks (throughput is noisier than allocation counts)")
	flag.Parse()

	var runs []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the console
		if r, ok := parse(line); ok {
			runs = append(runs, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(runs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	current := dedupe(runs)

	f := File{
		Note:     "datapath wall-clock benchmarks; baseline is the first recording at this path and is preserved across reruns; repeated runs record the best observed value per metric",
		Baseline: current,
		Current:  current,
	}
	var prevCur []Result
	if prev, err := os.ReadFile(*out); err == nil {
		var old File
		if json.Unmarshal(prev, &old) == nil && len(old.Baseline) > 0 {
			f.Baseline = old.Baseline
			prevCur = old.Current
		}
	}
	enc, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks (%d runs) to %s\n", len(current), len(runs), *out)

	fail := false
	for _, err := range checkRatios(current) {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		fail = true
	}
	if *gate != "" && len(prevCur) > 0 {
		prefixes := strings.Split(*gate, ",")
		if errs := checkGate(current, prevCur, prefixes, *gatePct, *gateMBsPct); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "benchjson: gate: %v\n", e)
			}
			fail = true
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %d pinned benchmarks within limits (allocs %.0f%%, MB/s %.0f%%) of previous recording\n",
				countPinned(current, prefixes), *gatePct, *gateMBsPct)
		}
	}
	if fail {
		os.Exit(1)
	}
}

// checkRatios holds the interleaved-ratio benchmarks to their constant
// ceilings, whatever the flags.
func checkRatios(results []Result) []error {
	var errs []error
	for _, r := range results {
		limit := maxCheckpointTax
		if r.Name == reliableTaxRow {
			limit = maxReliableCheckpointTax
		}
		if r.TaxX > limit {
			errs = append(errs, fmt.Errorf("%s: a standby costs %.2fx, more than %.2fx", r.Name, r.TaxX, limit))
		}
		if r.TracerX > maxTracerOverhead {
			errs = append(errs, fmt.Errorf("%s: a flight recorder costs %.3fx, more than %.2fx", r.Name, r.TracerX, maxTracerOverhead))
		}
	}
	return errs
}

func countPinned(results []Result, prefixes []string) int {
	n := 0
	for _, r := range results {
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(r.Name, p) {
				n++
				break
			}
		}
	}
	return n
}
