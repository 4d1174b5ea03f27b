package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// collect drains n messages from a conn, failing the test on timeout.
func collect(t *testing.T, c Conn, n int, timeout time.Duration) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(out) < n {
			m, err := c.Recv()
			if err != nil {
				return
			}
			out = append(out, m)
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("collected %d of %d messages", len(out), n)
	}
	return out
}

// driveScenario pushes `packets` one-byte messages through a fresh fabric
// on the 0->1 link and returns the fabric.
func driveScenario(t *testing.T, sc Scenario, packets int) *ChaosFabric {
	t.Helper()
	nw := NewNetwork(2, packets*2+16)
	f := NewChaosFabric(sc)
	c := f.Wrap(nw.Conn(0))
	for i := 0; i < packets; i++ {
		if err := c.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestChaosDeterministicDecisions(t *testing.T) {
	sc := Scenario{
		Seed:   42,
		Window: 400,
		Phases: []Phase{
			{Packets: 100, Drop: 0.1, Dup: 0.05},
			{Packets: 100, Burst: &Burst{PEnter: 0.05, PExit: 0.3, DropBad: 0.9}},
			{Packets: 100, Reorder: 0.2, ReorderSpan: 3},
			{Drop: 0.02, Delay: time.Millisecond, DelayP: 0.3},
		},
	}
	a := driveScenario(t, sc, 400)
	b := driveScenario(t, sc, 400)
	ca, cb := a.Counts(), b.Counts()
	if ca != cb {
		t.Fatalf("same seed, different injections:\n%+v\n%+v", ca, cb)
	}
	if ca.Total() == 0 {
		t.Fatal("scenario injected nothing")
	}
	if a.WindowEvents() != b.WindowEvents() || a.WindowEvents() == 0 {
		t.Fatalf("window events differ: %d vs %d", a.WindowEvents(), b.WindowEvents())
	}
	// A different seed must (overwhelmingly) choose different packets even
	// if aggregate rates are similar: compare full decision fingerprints by
	// re-running the drop decision stream directly.
	sc2 := sc
	sc2.Seed = 43
	c := driveScenario(t, sc2, 400)
	if a.Counts() == c.Counts() && a.WindowEvents() == c.WindowEvents() {
		t.Log("note: different seed coincided on all counters (unlikely but legal)")
	}
}

func TestChaosPhaseScheduleAdvancesPerLink(t *testing.T) {
	// Phase 1 drops everything, phase 2 duplicates everything: exactly the
	// first 10 messages on each link vanish, and every later one arrives
	// twice, back to back.
	sc := Scenario{Seed: 7, Phases: []Phase{{Packets: 10, Drop: 1.0}, {Dup: 1.0}}}
	nw := NewNetwork(3, 256)
	f := NewChaosFabric(sc)
	c0 := f.Wrap(nw.Conn(0))
	for i := 0; i < 30; i++ {
		if err := c0.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A second link is still in its own phase 1.
	for i := 0; i < 5; i++ {
		if err := c0.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, nw.Conn(1), 40, 2*time.Second)
	for i, m := range got {
		if int(m.Data[0]) != i/2+10 {
			t.Fatalf("message %d: got payload %d, want %d", i, m.Data[0], i/2+10)
		}
	}
	if n := f.Counts().Dropped; n != 15 {
		t.Fatalf("dropped %d, want 15 (10 on 0->1, 5 on 0->2)", n)
	}
	if n := f.Counts().Duplicated; n != 20 {
		t.Fatalf("duplicated %d, want 20", n)
	}
}

func TestChaosBurstLossIsBursty(t *testing.T) {
	// With rare entry, fast exit, and certain drop in the bad state, drops
	// must cluster into runs rather than spread uniformly.
	sc := Scenario{Seed: 11, Phases: []Phase{
		{Burst: &Burst{PEnter: 0.02, PExit: 0.25, DropBad: 1.0}},
	}}
	const n = 4000
	nw := NewNetwork(2, n+16)
	f := NewChaosFabric(sc)
	c := f.Wrap(nw.Conn(0))
	for i := 0; i < n; i++ {
		if err := c.Send(1, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	drops := f.Counts().BurstDrops
	if drops == 0 {
		t.Fatal("no burst drops")
	}
	// Expected loss rate = stationary P(bad) = PEnter/(PEnter+PExit) ~ 7.4%.
	rate := float64(drops) / n
	if rate < 0.02 || rate > 0.20 {
		t.Fatalf("burst loss rate %.3f outside plausible band", rate)
	}
	// Burstiness: count maximal runs of consecutive dropped seqs. Uniform
	// loss at the same rate would give ~n*rate runs of mean length ~1; the
	// GE model must produce significantly fewer, longer runs.
	got := collect(t, nw.Conn(1), n-int(drops), 5*time.Second)
	delivered := make([]bool, n)
	for _, m := range got {
		delivered[int(m.Data[0])|int(m.Data[1])<<8] = true
	}
	runs := 0
	inRun := false
	for i := 0; i < n; i++ {
		if !delivered[i] && !inRun {
			runs++
			inRun = true
		} else if delivered[i] {
			inRun = false
		}
	}
	meanRun := float64(drops) / float64(runs)
	if meanRun < 2.0 {
		t.Fatalf("mean drop-run length %.2f; expected bursty (>= 2)", meanRun)
	}
}

func TestChaosReorderBounded(t *testing.T) {
	const n, span = 200, 4
	sc := Scenario{Seed: 3, Phases: []Phase{{Reorder: 0.3, ReorderSpan: span}}}
	nw := NewNetwork(2, n+16)
	f := NewChaosFabric(sc)
	c := f.Wrap(nw.Conn(0))
	for i := 0; i < n; i++ {
		if err := c.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.Counts().Reordered == 0 {
		t.Fatal("no reordering")
	}
	got := collect(t, nw.Conn(1), n, 2*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	seen := make([]bool, n)
	for pos, m := range got {
		id := int(m.Data[0])
		seen[id] = true
		// Bounded displacement: a message may not arrive more than span+1
		// positions away from its send order in either direction.
		if d := pos - id; d > span+1 || d < -(span+1) {
			t.Fatalf("message %d displaced by %d (> span %d)", id, d, span)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("message %d lost by reordering", i)
		}
	}
}

func TestChaosOneWayPartition(t *testing.T) {
	sc := Scenario{Seed: 5, Phases: []Phase{
		{Packets: 8, Partitions: []Partition{{From: 0, To: -1}}},
		{},
	}}
	nw := NewNetwork(2, 256)
	f := NewChaosFabric(sc)
	c0 := f.Wrap(nw.Conn(0))
	c1 := f.Wrap(nw.Conn(1))
	// Node 0's first 8 sends are blackholed; node 1 is unaffected.
	for i := 0; i < 10; i++ {
		if err := c0.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := c1.Send(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fromZero := collect(t, nw.Conn(1), 2, 2*time.Second)
	if fromZero[0].Data[0] != 8 || fromZero[1].Data[0] != 9 {
		t.Fatalf("partition leaked: got payloads %d,%d", fromZero[0].Data[0], fromZero[1].Data[0])
	}
	fromOne := collect(t, nw.Conn(0), 10, 2*time.Second)
	if len(fromOne) != 10 {
		t.Fatalf("reverse direction affected: %d messages", len(fromOne))
	}
	if p := f.Counts().Partitioned; p != 8 {
		t.Fatalf("partitioned = %d, want 8", p)
	}
}

func TestChaosDelayDelivers(t *testing.T) {
	sc := Scenario{Seed: 9, Phases: []Phase{{Delay: 5 * time.Millisecond, DelayP: 1.0}}}
	nw := NewNetwork(2, 64)
	f := NewChaosFabric(sc)
	c := f.Wrap(nw.Conn(0))
	start := time.Now()
	for i := 0; i < 16; i++ {
		if err := c.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, nw.Conn(1), 16, 2*time.Second)
	if len(got) != 16 {
		t.Fatalf("delivered %d", len(got))
	}
	if time.Since(start) == 0 {
		t.Fatal("impossible")
	}
	if d := f.Counts().Delayed; d != 16 {
		t.Fatalf("delayed = %d, want 16", d)
	}
}

func TestChaosCleanScheduleIsTransparent(t *testing.T) {
	// An empty schedule forwards everything in order.
	nw := NewNetwork(2, 64)
	f := NewChaosFabric(Scenario{Seed: 1})
	c := f.Wrap(nw.Conn(0))
	for i := 0; i < 32; i++ {
		if err := c.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, nw.Conn(1), 32, 2*time.Second)
	for i, m := range got {
		if int(m.Data[0]) != i {
			t.Fatalf("out of order at %d", i)
		}
	}
	if tot := f.Counts().Total(); tot != 0 {
		t.Fatalf("clean fabric injected %d events", tot)
	}
	if f.Counts().Sent != 32 {
		t.Fatalf("sent = %d", f.Counts().Sent)
	}
}

func TestChaosWindowEventsExcludeTail(t *testing.T) {
	// Only events within the first Window packets per link count toward the
	// replay fingerprint.
	sc := Scenario{Seed: 21, Window: 50, Phases: []Phase{{Drop: 1.0}}}
	f := driveScenario(t, sc, 200)
	if w := f.WindowEvents(); w != 50 {
		t.Fatalf("window events = %d, want 50", w)
	}
	if d := f.Counts().Dropped; d != 200 {
		t.Fatalf("dropped = %d, want 200", d)
	}
}

func TestChaosRollUniformity(t *testing.T) {
	// Sanity: the stateless hash behind decisions is roughly uniform and
	// decorrelated across salts and sequence numbers.
	f := NewFaultModel(Scenario{Seed: 1234})
	var sum float64
	buckets := make([]int, 10)
	const n = 20000
	for i := 0; i < n; i++ {
		u := f.roll(0, 1, i, saltDrop)
		if u < 0 || u >= 1 {
			t.Fatalf("roll out of range: %v", u)
		}
		sum += u
		buckets[int(u*10)]++
	}
	if mean := sum / n; mean < 0.47 || mean > 0.53 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
	for b, c := range buckets {
		if c < n/10-n/25 || c > n/10+n/25 {
			t.Fatalf("bucket %d count %d far from uniform", b, c)
		}
	}
	// Distinct salts must not mirror each other.
	same := 0
	for i := 0; i < 1000; i++ {
		a := f.roll(0, 1, i, saltDrop) < 0.5
		b := f.roll(0, 1, i, saltDup) < 0.5
		if a == b {
			same++
		}
	}
	if same < 400 || same > 600 {
		t.Fatalf("salt correlation: %d/1000 agreements", same)
	}
}

func ExampleChaosFabric() {
	sc := Scenario{
		Seed:   1,
		Window: 100,
		Phases: []Phase{
			{Packets: 50, Drop: 0.2},                    // lossy warm-up
			{Packets: 50, Reorder: 0.5, ReorderSpan: 2}, // reorder storm
			{}, // clean tail
		},
	}
	nw := NewNetwork(2, 1024)
	f := NewChaosFabric(sc)
	c := f.Wrap(nw.Conn(0))
	for i := 0; i < 200; i++ {
		_ = c.Send(1, []byte{byte(i)})
	}
	_ = c.Flush()
	replay := NewChaosFabric(sc) // same seed: same decisions
	c2 := replay.Wrap(nw.Conn(0))
	for i := 0; i < 200; i++ {
		_ = c2.Send(1, []byte{byte(i)})
	}
	_ = c2.Flush()
	fmt.Println(f.WindowEvents() == replay.WindowEvents())
	// Output: true
}

// goldenScenario turns every pathology on at once for 200 packets per
// link, then runs clean: the schedule behind TestChaosGoldenFates.
var goldenScenario = Scenario{
	Seed:   2021,
	Window: 128,
	Phases: []Phase{
		{
			Packets:     200,
			Drop:        0.05,
			Burst:       &Burst{PEnter: 0.05, PExit: 0.4, DropGood: 0.01, DropBad: 0.8},
			Dup:         0.1,
			Reorder:     0.1,
			ReorderSpan: 3,
			Delay:       time.Millisecond,
			DelayP:      0.2,
			Partitions:  []Partition{{From: 1, To: -1}},
		},
		{},
	},
}

// goldenFates is the fate of each of the first 256 messages on link 0->1
// under goldenScenario: "." sent, "D" sent twice, "+ns" delayed by ns,
// "H3" held for three later messages, and drops by kind — "P" partition,
// "B" Gilbert–Elliott burst, "U" uniform. The list was recorded before the
// decision function was lifted out of ChaosFabric, so any change to it is
// a change to what the live fabric injects.
const goldenFates = `
D H3 +420908 +532661 . D . . . H3 . B B B +354536 .
H3 . . U +125327 . D +161769 D . . . . B B +405611
. . . . +378654 . . U . . +951915 D . . . +805150
. D . +955930 D H3 . . +691108 . +428994 . . . . .
. +458664 . . . D+896737 . +630837 . . H3 . H3 +400588 . D
. . +494690 +82433 . . . . . . . . H3 H3 +580445 .
. B +464385 . . . . H3 . . . +850667 . B B H3
. . H3 B . . . . . . . +325814 . D +544342 .
. D+201755 . +646378 . D+69145 . . . +605821 H3 H3 B H3 . .
. H3 . . . . D . . U . D D . H3 H3
+257701 +979096 H3 +154412 . . . . +493711 +26063 +254655 . +701921 U +926479 +846471
. +850009 +650392 D . H3 . . . . B B B . +718829 .
. . . . +317675 . +51271 +703476 . . . . . . . .
. . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . .
`

func TestChaosGoldenFates(t *testing.T) {
	var got []string
	f := NewFaultModel(goldenScenario)
	for i := 0; i < 256; i++ {
		before := f.Counts()
		fate := f.Next(0, 1)
		after := f.Counts()
		tok := "."
		switch {
		case after.Partitioned > before.Partitioned:
			tok = "P"
		case after.BurstDrops > before.BurstDrops:
			tok = "B"
		case after.Dropped > before.Dropped:
			tok = "U"
		case fate.Hold > 0:
			tok = fmt.Sprintf("H%d", fate.Hold)
		case fate.Dup && fate.Delay > 0:
			tok = fmt.Sprintf("D+%d", fate.Delay)
		case fate.Dup:
			tok = "D"
		case fate.Delay > 0:
			tok = fmt.Sprintf("+%d", fate.Delay)
		}
		got = append(got, tok)
	}
	if s := strings.Join(got, " "); s != strings.Join(strings.Fields(goldenFates), " ") {
		t.Fatalf("live fate stream moved:\n got %s\nwant %s", s, strings.Join(strings.Fields(goldenFates), " "))
	}
	want := EventCounts{Sent: 256, Dropped: 4, BurstDrops: 13, Duplicated: 16, Reordered: 19, Delayed: 42}
	if c := f.Counts(); c != want {
		t.Fatalf("counts %+v, want %+v", c, want)
	}
	if w := f.WindowEvents(); w != 55 {
		t.Fatalf("window events %d, want 55", w)
	}
}
