package core

import (
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// wedgedConn returns node 0's endpoint behind a fabric that blackholes
// everything it sends: sends succeed and vanish, and Recv blocks until
// Close — the silent failure a heartbeat-free protocol cannot tell from
// slowness.
func wedgedConn() transport.Conn {
	f := transport.NewChaosFabric(transport.Scenario{Phases: []transport.Phase{
		{Partitions: []transport.Partition{{From: 0, To: -1}}},
	}})
	return f.Wrap(transport.NewNetwork(1, 16).Conn(0))
}

// TestStallWatchdogPostmortem wedges a worker's transport — sends are
// swallowed, nothing is ever received — and asserts the watchdog turns
// the silent hang into a typed error carrying a postmortem bundle, within
// the configured timeout (plus scheduling slack), for both formats: they
// run the same driver loop.
func TestStallWatchdogPostmortem(t *testing.T) {
	data := make([]float32, 4096)
	kv := tensor.NewCOO(len(data))
	for i := range data {
		data[i] = float32(i%7) + 1
		kv.Append(int32(i), data[i])
	}
	for _, tc := range []struct {
		name string
		op   func(w *Worker) error
		ev   obs.Event // a record the flight dump must hold
	}{
		{"AllReduce", func(w *Worker) error { return w.AllReduce(data) }, obs.EvSlotIssue},
		{"AllReduceSparse", func(w *Worker) error {
			_, err := w.AllReduceSparse(kv)
			return err
		}, obs.EvOpBegin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fr := obs.NewFlightRecorder(-1, 256)
			prev := obs.SetTracer(fr)
			defer obs.SetTracer(prev)

			conn := wedgedConn()
			defer conn.Close()
			const stall = 100 * time.Millisecond
			w, err := NewWorker(conn, Config{
				Workers:       1,
				Aggregators:   []int{1},
				Reliable:      true,
				StallTimeout:  stall,
				PostmortemDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			errCh := make(chan error, 1)
			go func() { errCh <- tc.op(w) }()
			select {
			case err = <-errCh:
			case <-time.After(10 * stall):
				t.Fatalf("%s over a wedged transport still running after %v", tc.name, 10*stall)
			}
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("%s over a wedged transport succeeded", tc.name)
			}
			if !errors.Is(err, ErrOpStalled) {
				t.Fatalf("error %v is not ErrOpStalled", err)
			}
			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *StallError", err)
			}
			// No result ever arrives, so the very first watchdog period
			// detects the stall; allow generous scheduling slack.
			if elapsed > 10*stall {
				t.Fatalf("stall detected after %v, want ~%v", elapsed, stall)
			}

			if se.Bundle == nil {
				t.Fatal("StallError carries no bundle")
			}
			if se.Bundle.WorkerID != 0 || se.Bundle.TensorID == 0 {
				t.Fatalf("bundle identity = w%d t%d", se.Bundle.WorkerID, se.Bundle.TensorID)
			}
			if se.Bundle.Machine.PacketsSent == 0 {
				t.Fatal("bundle machine stats show no bootstrap packets: capture happened too early or not at all")
			}
			if se.Bundle.Flight == nil {
				t.Fatal("bundle has no flight-recorder dump despite an installed recorder")
			}
			found := false
			for _, r := range se.Bundle.Flight.Records {
				found = found || r.Ev == tc.ev
			}
			if !found {
				t.Fatalf("flight dump in bundle has no %v records", tc.ev)
			}

			if se.BundlePath == "" {
				t.Fatal("no postmortem file written despite PostmortemDir")
			}
			raw, err := os.ReadFile(se.BundlePath)
			if err != nil {
				t.Fatalf("reading bundle: %v", err)
			}
			var onDisk Postmortem
			if err := json.Unmarshal(raw, &onDisk); err != nil {
				t.Fatalf("bundle does not parse: %v", err)
			}
			if onDisk.TensorID != se.Bundle.TensorID || onDisk.IdleNs != int64(stall) {
				t.Fatalf("on-disk bundle mismatch: %+v", onDisk)
			}
		})
	}
}

// TestStallWatchdogHealthyRun: a healthy collective with the watchdog
// armed completes normally — progress keeps resetting the heartbeat.
func TestStallWatchdogHealthyRun(t *testing.T) {
	c := startCluster(t, Config{Workers: 2, Reliable: true, StallTimeout: 2 * time.Second}, 0, 1)
	var wg sync.WaitGroup
	errs := make([]error, len(c.workers))
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			data := make([]float32, 2048)
			for j := range data {
				data[j] = float32(i + 1)
			}
			errs[i] = w.AllReduce(data)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: healthy run tripped the watchdog: %v", i, err)
		}
	}
}
