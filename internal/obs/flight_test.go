package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	fr := NewFlightRecorder(3, 64)
	fr.TraceSlot(EvSlotIssue, 3, 7, 5, 200, 11)
	fr.TraceSlot(EvSlotComplete, 4, 7, 5, 255, -2)
	fr.Trace(EvOpBegin, 9, 1<<40)

	recs := fr.Records()
	if len(recs) != 3 {
		t.Fatalf("Records() = %d records, want 3", len(recs))
	}
	byEv := make(map[Event]Record)
	for i, r := range recs {
		byEv[r.Ev] = r
		if i > 0 && recs[i].TS < recs[i-1].TS {
			t.Fatalf("records not sorted by TS: %v", recs)
		}
	}
	issue := byEv[EvSlotIssue]
	if issue.Node != 3 || issue.Tid != 7 || issue.Slot != 5 || issue.Round != 200 || issue.Arg != 11 {
		t.Fatalf("EvSlotIssue record mangled: %+v", issue)
	}
	complete := byEv[EvSlotComplete]
	if complete.Node != 4 || complete.Round != 255 || complete.Arg != -2 {
		t.Fatalf("EvSlotComplete record mangled: %+v", complete)
	}
	begin := byEv[EvOpBegin]
	if begin.Node != 3 || begin.Tid != 9 || begin.Slot != 0 || begin.Arg != 1<<40 {
		t.Fatalf("Trace path record mangled: %+v", begin)
	}

	var buf bytes.Buffer
	d := fr.Dump()
	d.Tags = map[string]string{"expected_skip_ratio": "0.9"}
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatalf("ReadFlightDump: %v", err)
	}
	if back.Node != 3 || len(back.Records) != 3 || back.Tags["expected_skip_ratio"] != "0.9" {
		t.Fatalf("round-trip mismatch: node=%d records=%d tags=%v", back.Node, len(back.Records), back.Tags)
	}
	if back.Records[0] != recs[0] {
		t.Fatalf("record round-trip mismatch: %+v vs %+v", back.Records[0], recs[0])
	}
}

func TestFlightRecorderNegativeNode(t *testing.T) {
	fr := NewFlightRecorder(-1, 16).KeepAll()
	fr.Trace(EvPoolGet, 0, 128)
	recs := fr.Records()
	if len(recs) != 1 || recs[0].Node != -1 {
		t.Fatalf("want one record with node -1, got %+v", recs)
	}
}

// TestFlightRecorderEventFilter: the default filter keeps protocol events
// and drops the per-packet firehose; Keep replaces the set.
func TestFlightRecorderEventFilter(t *testing.T) {
	fr := NewFlightRecorder(0, 16)
	fr.Trace(EvPoolGet, 0, 1)                // firehose: dropped by default
	fr.Trace(EvPacketSent, 0, 1)             // firehose: dropped by default
	fr.Trace(EvOpBegin, 7, 0)                // lifecycle: kept
	fr.TraceSlot(EvSlotIssue, 0, 7, 0, 0, 1) // protocol: kept
	recs := fr.Records()
	if len(recs) != 2 {
		t.Fatalf("default filter retained %d records, want 2: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Ev != EvOpBegin && r.Ev != EvSlotIssue {
			t.Fatalf("default filter retained firehose event %v", r.Ev)
		}
	}

	fr = NewFlightRecorder(0, 16).Keep(EvPoolGet)
	fr.Trace(EvPoolGet, 0, 1)
	fr.TraceSlot(EvSlotIssue, 0, 7, 0, 0, 1)
	if recs := fr.Records(); len(recs) != 1 || recs[0].Ev != EvPoolGet {
		t.Fatalf("Keep(EvPoolGet) retained %+v, want exactly one pool_get", recs)
	}
}

func TestFlightRecorderRingRetention(t *testing.T) {
	fr := NewFlightRecorder(0, 8)
	// All events share (ev, tid, slot), so they land in one shard's
	// 8-entry ring; only the last 8 survive.
	const n = 100
	for i := 0; i < n; i++ {
		fr.TraceSlot(EvSlotIssue, 0, 1, 2, uint8(i), int64(i))
	}
	recs := fr.Records()
	if len(recs) != 8 {
		t.Fatalf("Records() = %d, want ring capacity 8", len(recs))
	}
	for i, r := range recs {
		if want := int64(n - 8 + i); r.Arg != want {
			t.Fatalf("record %d: arg %d, want %d (most recent events retained in order)", i, r.Arg, want)
		}
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(0, 256)
	prev := SetTracer(fr)
	defer SetTracer(prev)

	const writers, perWriter = 8, 500
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent reader: must never block writers or observe torn records.
	// Writers always stamp Node == Tid; a mismatch means a torn read
	// slipped past the seqlock.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			for _, r := range fr.Records() {
				if r.Ev != EvSlotIssue || r.Node != int32(r.Tid) {
					t.Errorf("torn record observed: %+v", r)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				EmitSlot(EvSlotIssue, int32(w), uint32(w), uint16(i), uint8(i), int64(i))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	recs := fr.Records()
	if len(recs) == 0 {
		t.Fatal("no records retained")
	}
	for _, r := range recs {
		if r.Node != int32(r.Tid) {
			t.Fatalf("torn record: %+v", r)
		}
	}
}

func TestActiveFlightRecorder(t *testing.T) {
	if ActiveFlightRecorder() != nil {
		t.Fatal("ActiveFlightRecorder with no tracer installed should be nil")
	}
	fr := NewFlightRecorder(0, 16)
	prev := SetTracer(MultiTracer{NewCountingTracer(), MultiTracer{fr}})
	defer SetTracer(prev)
	if got := ActiveFlightRecorder(); got != fr {
		t.Fatalf("ActiveFlightRecorder = %v, want the nested recorder", got)
	}
}

func TestEmitSlotFallback(t *testing.T) {
	// A plain Tracer still receives slot events, untagged.
	c := NewCountingTracer()
	prev := SetTracer(c)
	defer SetTracer(prev)
	EmitSlot(EvLookaheadSkip, 1, 2, 3, 4, 5)
	if c.Count(EvLookaheadSkip) != 1 || c.ArgSum(EvLookaheadSkip) != 5 {
		t.Fatalf("plain tracer missed slot event: count=%d arg=%d",
			c.Count(EvLookaheadSkip), c.ArgSum(EvLookaheadSkip))
	}
}
