//go:build goexperiment.synctest

package core

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"omnireduce/internal/transport"
)

// sendLog wraps a worker's endpoint: it records when each message leaves
// and swallows the ones drop picks (by their index on the endpoint).
type sendLog struct {
	transport.Conn
	drop func(n int) bool

	mu sync.Mutex
	at []time.Time
}

func (c *sendLog) Send(to int, data []byte) error {
	c.mu.Lock()
	n := len(c.at)
	c.at = append(c.at, time.Now())
	c.mu.Unlock()
	if c.drop(n) {
		return nil
	}
	return c.Conn.Send(to, data)
}

// TestRetransmitAtMachineDeadline runs a live cluster in virtual time and
// checks that the driver wakes each worker at its machine's own deadline.
// Three workers, one stream, one round: the last worker's bootstrap is
// lost, so every worker's timer expires — the first two resend a packet
// the aggregator already holds, the last one repairs the round — and each
// resends exactly RetransmitTimeout + wid×RetransmitTimeout/64 after its
// bootstrap, no sooner and no later.
func TestRetransmitAtMachineDeadline(t *testing.T) {
	const W, rt = 3, 64 * time.Millisecond
	synctest.Run(func() {
		cfg := Config{Workers: W, Aggregators: []int{W}, BlockSize: 4, FusionWidth: 4, Streams: 1,
			RetransmitTimeout: rt, RetransmitBackoff: 1, RetransmitJitter: -1}
		nw := transport.NewNetwork(W, 64)
		aggConn := nw.AddNode(W)
		agg, err := NewAggregator(aggConn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var aggWG sync.WaitGroup
		aggWG.Add(1)
		go func() {
			defer aggWG.Done()
			if err := agg.Run(); err != nil {
				t.Errorf("aggregator: %v", err)
			}
		}()
		logs := make([]*sendLog, W)
		workers := make([]*Worker, W)
		for w := range workers {
			logs[w] = &sendLog{Conn: nw.Conn(w), drop: func(n int) bool { return w == W-1 && n == 0 }}
			if workers[w], err = NewWorker(logs[w], cfg); err != nil {
				t.Fatal(err)
			}
		}
		data := make([][]float32, W)
		var wg sync.WaitGroup
		for w := range workers {
			data[w] = []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, float32(w)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := workers[w].AllReduce(data[w]); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}()
		}
		wg.Wait()
		for _, wk := range workers {
			wk.Close()
		}
		aggConn.Close()
		aggWG.Wait()

		for w, l := range logs {
			if got, want := data[w][15], float32(0+1+2); got != want {
				t.Errorf("worker %d: sum %v, want %v", w, got, want)
			}
			if len(l.at) != 2 {
				t.Errorf("worker %d sent %d messages, want a bootstrap and one retransmission", w, len(l.at))
				continue
			}
			if got, want := l.at[1].Sub(l.at[0]), rt+time.Duration(w)*rt/64; got != want {
				t.Errorf("worker %d retransmitted %v after its bootstrap, want %v", w, got, want)
			}
			if s := workers[w].Stats.Snapshot(); s.Retransmits != 1 {
				t.Errorf("worker %d: %d retransmits, want 1", w, s.Retransmits)
			}
		}
	})
}
