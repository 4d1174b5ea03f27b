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
	r, ok = parse("BenchmarkCheckpointTax/versioned-2  50  4264294 ns/op  3740708 plain-ns/op  1.140 tax-x")
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

func TestTracerOverheadGate(t *testing.T) {
	// The benchmark reports the ratio of its interleaved medians; benchjson
	// records the best of the repeated runs and fails only above the budget.
	r, ok := parse("BenchmarkTracerOverhead-2  30  1155133 ns/op  1173226 off-ns/op  0.9846 tracer-x  78610 B/op  63 allocs/op")
	if !ok || r.TracerX != 0.9846 || r.NsPerOp != 1155133 {
		t.Fatalf("tracer line: ok=%v %+v", ok, r)
	}
	d := dedupe([]Result{{Name: r.Name, NsPerOp: 1, TracerX: 1.2}, r})
	if len(d) != 1 || d[0].TracerX != 0.9846 {
		t.Fatalf("tracer dedupe: %+v", d)
	}
	if errs := checkRatios(d); len(errs) != 0 {
		t.Fatalf("0.98x tripped the gate: %v", errs)
	}
	over := []Result{{Name: r.Name, TracerX: 1.06}, {Name: "BenchmarkCheckpointTax/versioned", TaxX: 2.1}}
	if errs := checkRatios(over); len(errs) != 2 {
		t.Fatalf("over-budget ratios: %v", errs)
	}
}

func TestCheckpointTaxGate(t *testing.T) {
	// Both rows are held to 2x; the reliable one, which mirrors final
	// results only, to 1.15x.
	within := []Result{{Name: "BenchmarkCheckpointTax/reliable", TaxX: 1.14}, {Name: "BenchmarkCheckpointTax/versioned", TaxX: 1.9}}
	if errs := checkRatios(within); len(errs) != 0 {
		t.Fatalf("within-budget taxes tripped the gate: %v", errs)
	}
	over := []Result{{Name: "BenchmarkCheckpointTax/reliable", TaxX: 1.16}, {Name: "BenchmarkCheckpointTax/versioned", TaxX: 2.01}}
	errs := checkRatios(over)
	if len(errs) != 2 || !strings.Contains(errs[0].Error(), "more than 1.15x") || !strings.Contains(errs[1].Error(), "more than 2.00x") {
		t.Fatalf("over-budget taxes: %v", errs)
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
