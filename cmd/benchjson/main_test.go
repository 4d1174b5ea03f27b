package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parse("BenchmarkPacketEncode-8  500000  2101 ns/op  1948.87 MB/s  16 B/op  2 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkPacketEncode" || r.Iters != 500000 || r.NsPerOp != 2101 ||
		r.MBPerS != 1948.87 || r.BPerOp != 16 || r.AllocsOp != 2 {
		t.Fatalf("parsed %+v", r)
	}
	r, ok = parse("BenchmarkPacketShape/chan/sparsity=0.99/fusion=32/streams=4-2  100  824466 ns/op  5087.31 MB/s  88728 wire-B/op  8280 B/op  53 allocs/op")
	if !ok || r.Name != "BenchmarkPacketShape/chan/sparsity=0.99/fusion=32/streams=4" ||
		r.WireBPerOp != 88728 || r.BPerOp != 8280 || r.AllocsOp != 53 {
		t.Fatalf("custom metric line: ok=%v %+v", ok, r)
	}
	r, ok = parse("BenchmarkCheckpointTax-2  50  4264294 ns/op  3740708 plain-ns/op  1.140 tax-x")
	if !ok || r.NsPerOp != 4264294 || r.TaxX != 1.14 {
		t.Fatalf("tax line: ok=%v %+v", ok, r)
	}
	if d := dedupe([]Result{r, {Name: r.Name, NsPerOp: 5e6, TaxX: 1.1}}); len(d) != 1 || d[0].TaxX != 1.1 || d[0].NsPerOp != 4264294 {
		t.Fatalf("tax dedupe: %+v", d)
	}
	if _, ok := parse("PASS"); ok {
		t.Fatal("non-benchmark line parsed")
	}
	if _, ok := parse("BenchmarkBroken-8  100  garbage"); ok {
		t.Fatal("line without ns/op parsed")
	}
}

func TestDedupeKeepsBestPerMetric(t *testing.T) {
	in := []Result{
		{Name: "BenchmarkA", NsPerOp: 300, AllocsOp: 10, MBPerS: 90, BPerOp: 64, Iters: 3},
		{Name: "BenchmarkB", NsPerOp: 50},
		{Name: "BenchmarkA", NsPerOp: 100, AllocsOp: 30, MBPerS: 120, BPerOp: 96, Iters: 9}, // fastest
		{Name: "BenchmarkA", NsPerOp: 200, AllocsOp: 20, MBPerS: 100, BPerOp: 80, Iters: 5},
	}
	got := dedupe(in)
	if len(got) != 2 {
		t.Fatalf("dedupe kept %d entries, want 2", len(got))
	}
	// First-appearance order is preserved; each metric keeps its best:
	// min ns/op (with its iters), max MB/s, min B/op and allocs/op.
	a := got[0]
	if a.Name != "BenchmarkA" || a.NsPerOp != 100 || a.Iters != 9 ||
		a.MBPerS != 120 || a.BPerOp != 64 || a.AllocsOp != 10 {
		t.Fatalf("A = %+v", a)
	}
	if got[1].Name != "BenchmarkB" || got[1].NsPerOp != 50 {
		t.Fatalf("B = %+v", got[1])
	}
}

func TestTracerBudgetUsesRawRuns(t *testing.T) {
	// Three off/flight pairs; the median ratio (2%) is under budget even
	// though one outlier pair (20%) would trip it alone.
	runs := []Result{
		{Name: tracerOffName, NsPerOp: 100}, {Name: tracerFlightName, NsPerOp: 102},
		{Name: tracerOffName, NsPerOp: 100}, {Name: tracerFlightName, NsPerOp: 120},
		{Name: tracerOffName, NsPerOp: 100}, {Name: tracerFlightName, NsPerOp: 101},
	}
	pct, found, err := checkTracerBudget(runs, 5)
	if !found || err != nil {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if pct != 2 {
		t.Fatalf("median overhead = %v, want 2", pct)
	}
	if _, _, err := checkTracerBudget(runs, 1); err == nil {
		t.Fatal("budget 1%% should fail on 2%% median")
	}
}

func TestGateAllocRegression(t *testing.T) {
	old := []Result{{Name: "BenchmarkAllReduceLive/workers=8", NsPerOp: 100, AllocsOp: 1000, MBPerS: 150}}
	ok := []Result{{Name: "BenchmarkAllReduceLive/workers=8", NsPerOp: 100, AllocsOp: 1090, MBPerS: 150}}
	if errs := checkGate(ok, old, []string{"BenchmarkAllReduceLive"}, 10, 35); len(errs) != 0 {
		t.Fatalf("within-limit allocs flagged: %v", errs)
	}
	bad := []Result{{Name: "BenchmarkAllReduceLive/workers=8", NsPerOp: 100, AllocsOp: 1200, MBPerS: 150}}
	errs := checkGate(bad, old, []string{"BenchmarkAllReduceLive"}, 10, 35)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "allocs/op regressed") {
		t.Fatalf("alloc regression not flagged: %v", errs)
	}
}

func TestGateThroughputRegression(t *testing.T) {
	// MB/s uses its own (wider) tolerance: -15% passes at mbsPct=35,
	// -40% fails.
	old := []Result{{Name: "BenchmarkPacketEncode", NsPerOp: 100, MBPerS: 1000}}
	ok := []Result{{Name: "BenchmarkPacketEncode", NsPerOp: 100, MBPerS: 850}}
	if errs := checkGate(ok, old, []string{"BenchmarkPacketEncode"}, 10, 35); len(errs) != 0 {
		t.Fatalf("within-tolerance throughput flagged: %v", errs)
	}
	bad := []Result{{Name: "BenchmarkPacketEncode", NsPerOp: 100, MBPerS: 600}}
	errs := checkGate(bad, old, []string{"BenchmarkPacketEncode"}, 10, 35)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "MB/s regressed") {
		t.Fatalf("throughput regression not flagged: %v", errs)
	}
	// The alloc tolerance still applies independently at 10%.
	bad = []Result{{Name: "BenchmarkPacketEncode", NsPerOp: 100, MBPerS: 1000, AllocsOp: 100}}
	old[0].AllocsOp = 50
	if errs := checkGate(bad, old, []string{"BenchmarkPacketEncode"}, 10, 35); len(errs) != 1 {
		t.Fatalf("alloc regression not flagged alongside healthy MB/s: %v", errs)
	}
}

func TestGateScope(t *testing.T) {
	old := []Result{
		{Name: "BenchmarkUnpinned", AllocsOp: 10, NsPerOp: 1},
		{Name: "BenchmarkPinned/old-only", AllocsOp: 10, NsPerOp: 1},
	}
	cur := []Result{
		{Name: "BenchmarkUnpinned", AllocsOp: 10000, NsPerOp: 1}, // not gated
		{Name: "BenchmarkPinned/new-only", AllocsOp: 10000, NsPerOp: 1},
	}
	if errs := checkGate(cur, old, []string{"BenchmarkPinned"}, 10, 35); len(errs) != 0 {
		t.Fatalf("gate flagged out-of-scope benchmarks: %v", errs)
	}
	// Small benchmarks get absolute slack: 2 -> 9 allocs is within 2*1.1+8.
	old = []Result{{Name: "BenchmarkPinnedSmall", AllocsOp: 2, NsPerOp: 1}}
	cur = []Result{{Name: "BenchmarkPinnedSmall", AllocsOp: 9, NsPerOp: 1}}
	if errs := checkGate(cur, old, []string{"BenchmarkPinnedSmall"}, 10, 35); len(errs) != 0 {
		t.Fatalf("slack not applied: %v", errs)
	}
	cur = []Result{{Name: "BenchmarkPinnedSmall", AllocsOp: 11, NsPerOp: 1}}
	if errs := checkGate(cur, old, []string{"BenchmarkPinnedSmall"}, 10, 35); len(errs) != 1 {
		t.Fatalf("past-slack regression not flagged: %v", errs)
	}
}
