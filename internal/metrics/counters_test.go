package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("retransmits", 3)
	c.Add("backoffs", 1)
	c.Add("retransmits", 2)
	snap := c.Snapshot()
	if len(snap) != 2 || snap["retransmits"] != 5 || snap["backoffs"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap["retransmits"] = 0 // a snapshot is a copy
	if c.Snapshot()["retransmits"] != 5 {
		t.Fatal("snapshot aliased internal state")
	}
	out := c.Table("recovery").String()
	if strings.Index(out, "retransmits") > strings.Index(out, "backoffs") {
		t.Fatalf("creation order lost:\n%s", out)
	}
}

func TestCountersTable(t *testing.T) {
	c := NewCounters()
	c.Add("dups_filtered", 7)
	c.Add("stale_rounds", 0)
	out := c.Table("recovery").String()
	if !strings.Contains(out, "dups_filtered") || !strings.Contains(out, "7") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	if c.Table("recovery").Rows() != 2 {
		t.Fatal("zero-valued counters must still render")
	}
}

// TestCountersTableConcurrentWithAdd races Table against counter creation
// and increments. Table must read names and values under one lock, so
// under the race detector no access is torn, and every rendered table has
// one row per counter created so far.
func TestCountersTableConcurrentWithAdd(t *testing.T) {
	c := NewCounters()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Add("steady", 1)
			c.Add(fmt.Sprintf("new_%d", i%64), 1)
		}
	}()
	for i := 0; i < 200; i++ {
		c.Table("live")
	}
	close(stop)
	wg.Wait()
	if rows, want := c.Table("final").Rows(), len(c.Snapshot()); rows != want {
		t.Fatalf("table has %d rows for %d counters", rows, want)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1_000; i++ {
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot()["n"]; got != 8_000 {
		t.Fatalf("n = %d", got)
	}
}
