package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"omnireduce/internal/metrics"
	"omnireduce/internal/tensor"
)

// warmupOps collectives end every set-up: they fill the buffer, machine
// and op-state pools.
const warmupOps = 3

// settleOps more untimed collectives run on the cluster that is about to
// be measured. An aggregator archives the final result of its 16 most
// recent tensors per slot (protocol's archiveDepth); until that archive is
// full every op makes a checkpoint bigger, and checkpoint_chan's op time
// climbs from ~200 ms to ~430 ms. Warm-up plus settling fill the archive,
// so measuring starts on the plateau.
const settleOps = 16 - warmupOps

// runner drives one workload's closed loop: `workers` goroutines, each
// with one collective in flight (multijob_chan: four, issued async from
// the same goroutine), released together and awaited together.
type runner struct {
	wl  *workload
	in  *inputs
	rig *rig

	deadline time.Duration
	timer    *time.Timer
	start    [workers]chan struct{}
	done     chan error // buffered to `workers`: a late finisher never blocks
	exited   chan struct{}

	// dead is set once an op hits its deadline: the cluster is wedged, so
	// every later op counts as failed and nothing waits on it again.
	dead bool

	// corrupt, when set, damages a result between the collective and its
	// verification; the tests use it to prove a wrong sum is counted.
	corrupt func(*rig)
	// tr records spans around each op when the run is traced.
	tr *tracer
}

// newRunner sets one workload up to the point where the next op is the
// first timed one: inputs, reference sum, cluster, warm-up.
func newRunner(wl *workload, seed int64, deadline time.Duration, build func(*workload, *inputs) (*rig, error)) (*runner, error) {
	in, err := generate(wl, seed)
	if err != nil {
		return nil, err
	}
	rig, err := build(wl, in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	r := &runner{wl: wl, in: in, rig: rig, deadline: deadline,
		timer: time.NewTimer(time.Hour), done: make(chan error, workers), exited: make(chan struct{})}
	r.timer.Stop()
	for w := range r.start {
		r.start[w] = make(chan struct{})
		go func(w int) {
			for range r.start[w] {
				r.done <- rig.op(w)
			}
			r.exited <- struct{}{}
		}(w)
	}
	for i := 0; i < warmupOps; i++ {
		if _, _, ok := r.oneOp(); !ok {
			r.close()
			return nil, fmt.Errorf("%s: warm-up op %d failed", wl.name, i)
		}
	}
	return r, nil
}

// settle runs the untimed ops that bring a fresh cluster to steady state.
func (r *runner) settle() {
	for i := 0; i < settleOps && !r.dead; i++ {
		r.oneOp()
	}
}

// close stops the worker goroutines and the cluster and waits for both,
// unless the cluster is wedged: then there is nothing that can be joined.
func (r *runner) close() error {
	if r.dead {
		return nil
	}
	err := r.rig.close()
	for w := range r.start {
		close(r.start[w])
	}
	for range r.start {
		<-r.exited
	}
	return err
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// oneOp runs one collective. Only the span between releasing the workers
// and the last of them returning is timed; restoring the in-place inputs
// before it and checking the result after it are not.
func (r *runner) oneOp() (span, cpu time.Duration, ok bool) {
	if r.dead {
		return 0, 0, false
	}
	restore(r.rig.work, r.in)
	sp := r.tr.beginOp()
	r.timer.Reset(r.deadline)
	c0, t0 := cpuTime(), time.Now()
	for w := range r.start {
		r.start[w] <- struct{}{}
	}
	var err error
	for got := 0; got < workers; {
		select {
		case e := <-r.done:
			err = errors.Join(err, e)
			got++
		case <-r.timer.C:
			// A hang becomes a failed op, not a stuck run. Closing the
			// cluster is best effort and must not be waited for: whatever
			// wedged the collective may wedge the shutdown too.
			r.dead = true
			go r.rig.close()
			return 0, 0, false
		}
	}
	span, cpu = time.Since(t0), cpuTime()-c0
	r.timer.Stop()
	r.tr.endOp(sp)
	if r.corrupt != nil {
		r.corrupt(r.rig)
	}
	return span, cpu, err == nil && r.rig.verify()
}

// allEqual reports whether every worker's buffer holds exactly ref.
func allEqual(bufs [][]float32, ref []float32) bool {
	want := tensor.FromSlice(ref)
	for _, b := range bufs {
		if !tensor.FromSlice(b).Equal(want) {
			return false
		}
	}
	return true
}

func equalCOO(a, b *tensor.COO) bool {
	if a == nil || a.Dim != b.Dim || len(a.Keys) != len(b.Keys) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// trial is one measured stretch of a workload's closed loop. spans, cpu
// and bytes cover the successful ops only, so every per-op figure divides
// by the same count.
type trial struct {
	spans  []time.Duration
	cpu    time.Duration // process CPU inside the spans
	bytes  int64         // Worker.Stats().BytesSent delta over the ops
	failed int
}

// runTrial issues ops back to back until d has passed (restore and verify
// time included, so a run lasts what -seconds says).
func (r *runner) runTrial(d time.Duration) trial {
	var t trial
	for end := time.Now().Add(d); ; {
		b0 := r.rig.bytesSent()
		span, cpu, ok := r.oneOp()
		if ok {
			t.spans = append(t.spans, span)
			t.cpu += cpu
			t.bytes += r.rig.bytesSent() - b0
		} else {
			t.failed++
		}
		if r.dead || !time.Now().Before(end) {
			break
		}
	}
	return t
}

func (t *trial) ops() int { return len(t.spans) + t.failed }

// metrics reduces a trial to the end-to-end figures, as the clock and
// getrusage read them (setup_s is measured elsewhere). A trial with no
// successful op reports nothing.
func (t *trial) metrics(opBytes int) map[string]float64 {
	m := map[string]float64{}
	if len(t.spans) == 0 {
		return m
	}
	spans := make([]float64, len(t.spans))
	var wall time.Duration
	for i, d := range t.spans {
		spans[i] = ms(d)
		wall += d
	}
	sum := metrics.Summarize(spans)
	n := float64(len(spans))
	m["op_ms_p50"], m["op_ms_p90"], m["op_ms_p99"] = sum.P50, sum.P90, sum.P99
	m["goodput_mb_s"] = float64(opBytes) * n / wall.Seconds() / 1e6
	m["wire_bytes_per_op"] = float64(t.bytes) / n
	m["cpu_ms_per_op"] = ms(t.cpu) / n
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is the middle of v (the lower middle of an even count), 0 for
// none.
func median(v []float64) float64 { return metrics.Summarize(v).P50 }
