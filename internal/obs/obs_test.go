package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("packets")
	c.Inc()
	c.Add(4)
	if r.Counter("packets") != c {
		t.Fatal("Counter not idempotent")
	}
	if got := r.Counter("packets").Load(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := r.Gauge("depth").Load(); got != 5 {
		t.Fatalf("gauge = %d", got)
	}
	if r.Histogram("lat") != r.Histogram("lat") {
		t.Fatal("Histogram not idempotent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// bucket 0: v == 0; bucket i: [2^(i-1), 2^i)
	h.Observe(0)
	h.Observe(1)    // bucket 1
	h.Observe(2)    // bucket 2
	h.Observe(3)    // bucket 2
	h.Observe(4)    // bucket 3
	h.Observe(1023) // bucket 10
	h.Observe(1024) // bucket 11
	h.Observe(-5)   // clamps to 0, bucket 0
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d", s.Count)
	}
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1}
	for i, v := range s.Buckets {
		if v != wantBuckets[i] {
			t.Fatalf("bucket %d = %d, want %d", i, v, wantBuckets[i])
		}
	}
	if s.Sum != 0+1+2+3+4+1023+1024 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if m := s.Mean(); m <= 0 {
		t.Fatalf("mean = %g", m)
	}
	// Quantile returns a bucket upper bound: the p50 of this sample sits
	// in bucket 2 (values 2,3 are the 4th/5th of 8 sorted samples).
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("p50 bound = %d", q)
	}
	if q := s.Quantile(1.0); q < 1024 {
		t.Fatalf("p100 bound = %d", q)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(1<<62 + 1)
	s := h.Snapshot()
	if s.Buckets[HistBuckets-1] != 1 {
		t.Fatal("huge sample must land in the last bucket")
	}
}

func TestSnapshotAndTables(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(100)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "b" || s.Counters[1].Name != "a" {
		t.Fatalf("creation order lost: %+v", s.Counters)
	}
	tables := r.Tables("test ")
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	out := tables[0].String() + tables[1].String()
	for _, want := range []string{"a", "b", "g (gauge)", "h"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q:\n%s", want, out)
		}
	}
	cs := r.Counters()
	if cs.Get("a") != 1 || cs.Get("b") != 2 || cs.Get("g") != 3 {
		t.Fatal("Counters export mismatch")
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("y")
	c.Add(5)
	h.Observe(9)
	r.Reset()
	if c.Load() != 0 {
		t.Fatal("counter not reset")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("histogram not reset")
	}
	if r.Counter("x") != c {
		t.Fatal("reset must preserve metric identity")
	}
}

func TestTracerDisabledAndEnabled(t *testing.T) {
	if prev := SetTracer(nil); prev != nil {
		defer SetTracer(prev)
	}
	if Enabled() {
		t.Fatal("tracer must start disabled")
	}
	Emit(EvPacketSent, 1, 100) // must be a no-op

	ct := NewCountingTracer()
	SetTracer(ct)
	defer SetTracer(nil)
	if !Enabled() {
		t.Fatal("tracer not enabled")
	}
	Emit(EvPacketSent, 1, 100)
	Emit(EvPacketSent, 2, 50)
	Emit(EvRetransmit, 1, 1)
	if ct.Count(EvPacketSent) != 2 || ct.ArgSum(EvPacketSent) != 150 {
		t.Fatalf("packet_sent count=%d args=%d", ct.Count(EvPacketSent), ct.ArgSum(EvPacketSent))
	}
	cs := ct.Counters()
	if cs.Get("trace_packet_sent") != 2 || cs.Get("trace_retransmit") != 1 {
		t.Fatalf("trace counters: %v", cs.Snapshot())
	}
	if cs.Get("trace_op_begin") != 0 {
		t.Fatal("zero events must not be exported")
	}
}

func TestMultiTracer(t *testing.T) {
	a, b := NewCountingTracer(), NewCountingTracer()
	m := MultiTracer{a, b}
	m.Trace(EvOpBegin, 1, 64)
	if a.Count(EvOpBegin) != 1 || b.Count(EvOpBegin) != 1 {
		t.Fatal("multi tracer did not fan out")
	}
}

func TestEventString(t *testing.T) {
	seen := map[string]bool{}
	for ev := Event(0); ev < NumEvents; ev++ {
		s := ev.String()
		if s == "" || s == "unknown" {
			t.Fatalf("event %d has no name", ev)
		}
		if seen[s] {
			t.Fatalf("duplicate event name %q", s)
		}
		seen[s] = true
	}
	if Event(200).String() != "unknown" {
		t.Fatal("out-of-range event must be unknown")
	}
}

func TestLeakAudit(t *testing.T) {
	var gets, puts atomic.Int64
	RegisterPool("test_pool", func() (int64, int64) { return gets.Load(), puts.Load() })
	// Re-registering replaces, not duplicates.
	RegisterPool("test_pool", func() (int64, int64) { return gets.Load(), puts.Load() })

	a := StartLeakAudit()
	gets.Add(3)
	puts.Add(2)
	leaks := a.Leaks()
	found := false
	for _, l := range leaks {
		if l.Name == "test_pool" {
			found = true
			if l.Outstanding() != 1 {
				t.Fatalf("outstanding = %d", l.Outstanding())
			}
		}
	}
	if !found {
		t.Fatalf("leak not reported: %+v", leaks)
	}
	if err := LeaksErr(leaks); err == nil || !strings.Contains(err.Error(), "test_pool") {
		t.Fatalf("LeaksErr = %v", err)
	}

	// Release in the background; Settle must converge.
	go func() { time.Sleep(5 * time.Millisecond); puts.Add(1) }()
	if leaks := a.Settle(2 * time.Second); len(leaksOf(leaks, "test_pool")) != 0 {
		t.Fatalf("settle did not converge: %+v", leaks)
	}
	if err := LeaksErr(nil); err != nil {
		t.Fatalf("empty LeaksErr = %v", err)
	}

	// A negative delta (release of a pre-audit acquisition) is not a leak.
	b := StartLeakAudit()
	puts.Add(1) // puts now exceed gets
	if leaks := leaksOf(b.Leaks(), "test_pool"); len(leaks) != 0 {
		t.Fatalf("negative delta reported as leak: %+v", leaks)
	}
	if !strings.Contains(PoolTable().String(), "test_pool") {
		t.Fatal("pool table missing test_pool")
	}
}

func leaksOf(leaks []PoolBalance, name string) []PoolBalance {
	var out []PoolBalance
	for _, l := range leaks {
		if l.Name == name {
			out = append(out, l)
		}
	}
	return out
}

func TestWriteJSONAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("json_c").Add(9)
	r.Histogram("json_h").Observe(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics RegistrySnapshot `json:"metrics"`
		Pools   []PoolBalance    `json:"pools"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics.Counters) != 1 || doc.Metrics.Counters[0].Value != 9 {
		t.Fatalf("JSON counters: %+v", doc.Metrics.Counters)
	}
	if len(doc.Metrics.Hists) != 1 || doc.Metrics.Hists[0].Count != 1 {
		t.Fatalf("JSON hists: %+v", doc.Metrics.Hists)
	}

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "json_c") {
		t.Fatalf("handler: code %d body %s", rec.Code, rec.Body.String())
	}

	mux := DebugMux(r)
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec2.Code != 200 || !strings.Contains(rec2.Body.String(), "omnireduce") {
		t.Fatal("expvar endpoint missing omnireduce var")
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("sharedh")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Histogram("sharedh").Snapshot().Count; got != 8000 {
		t.Fatalf("hist count = %d", got)
	}
}

// TestObsHotPathZeroAllocs pins the always-on metric updates and the
// disabled trace path at zero allocations per operation — the
// observability layer's hot-path budget.
func TestObsHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := NewRegistry()
	c := r.Counter("hot")
	g := r.Gauge("hotg")
	h := r.Histogram("hoth")
	if prev := SetTracer(nil); prev != nil {
		defer SetTracer(prev)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(4096)
		Emit(EvPacketSent, 7, 4096) // disabled path
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op", n)
	}
	// Counting tracer installed: still allocation-free.
	ct := NewCountingTracer()
	SetTracer(ct)
	defer SetTracer(nil)
	if n := testing.AllocsPerRun(1000, func() {
		Emit(EvPacketSent, 7, 4096)
	}); n != 0 {
		t.Fatalf("counting tracer allocates %v per op", n)
	}
}
