package omnireduce

// Integration tests exercising the public cross-process API over real
// sockets on loopback: the same code paths cmd/worker and cmd/aggregator
// run across hosts.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPublicTCPJob(t *testing.T) {
	const workers = 2
	opts := Options{Workers: workers, Streams: 2, StallTimeout: 30 * time.Second}
	// Every endpoint binds ":0" and the real ports are exchanged after
	// binding, so parallel test runs never collide on fixed ports.
	agg, err := NewTCPAggregator(workers, map[int]string{workers: "127.0.0.1:0"}, opts)
	if err != nil {
		t.Fatalf("aggregator: %v", err)
	}
	addrs := map[int]string{workers: agg.Addr()}
	aggDone := make(chan error, 1)
	go func() { aggDone <- agg.Run() }()
	defer func() {
		agg.Close()
		select {
		case err := <-aggDone:
			if err != nil {
				t.Errorf("aggregator run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("aggregator did not stop")
		}
	}()

	ws := make([]*Worker, workers)
	for i := 0; i < workers; i++ {
		w, err := NewTCPWorker(i, addrs, opts)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		ws[i] = w
	}

	rng := rand.New(rand.NewSource(2))
	const n = 30_000
	inputs := make([][]float32, workers)
	want := make([]float32, n)
	for w := range inputs {
		inputs[w] = make([]float32, n)
		for i := range inputs[w] {
			if rng.Float64() < 0.2 {
				v := float32(rng.NormFloat64())
				inputs[w][i] = v
				want[i] += v
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ws[i].AllReduce(inputs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for w := range inputs {
		for i := range want {
			d := float64(inputs[w][i]) - float64(want[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("worker %d elem %d: %v vs %v", w, i, inputs[w][i], want[i])
			}
		}
	}
}

func TestPublicUDPJob(t *testing.T) {
	const workers = 2
	opts := Options{
		Workers:           workers,
		Streams:           2,
		BlockSize:         64,
		RetransmitTimeout: 20 * time.Millisecond,
		StallTimeout:      30 * time.Second,
	}
	ws := startUDPJob(t, opts)

	rng := rand.New(rand.NewSource(3))
	const n = 20_000
	inputs := make([][]float32, workers)
	want := make([]float32, n)
	for w := range inputs {
		inputs[w] = make([]float32, n)
		for i := range inputs[w] {
			if rng.Float64() < 0.05 {
				v := float32(rng.NormFloat64())
				inputs[w][i] = v
				want[i] += v
			}
		}
	}
	allReduceUDP(t, ws, inputs)
	for w := range inputs {
		for i := range want {
			d := float64(inputs[w][i]) - float64(want[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("worker %d elem %d: %v vs %v", w, i, inputs[w][i], want[i])
			}
		}
	}
}

// startUDPJob starts an aggregator and opts.Workers workers over loopback
// UDP, closed when the test ends. The aggregator binds ":0" first; each
// worker also binds ":0" knowing only the aggregator's real address, and
// the aggregator learns the worker addresses through RegisterPeer. No
// fixed ports, no retry loop.
func startUDPJob(t *testing.T, opts Options) []*Worker {
	t.Helper()
	agg, err := NewUDPAggregator(opts.Workers, map[int]string{opts.Workers: "127.0.0.1:0"}, opts)
	if err != nil {
		t.Fatalf("aggregator: %v", err)
	}
	go agg.Run()
	t.Cleanup(func() { agg.Close() })
	ws := make([]*Worker, opts.Workers)
	for i := range ws {
		addrs := map[int]string{i: "127.0.0.1:0", opts.Workers: agg.Addr()}
		w, err := NewUDPWorker(i, addrs, opts)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		if err := agg.RegisterPeer(i, w.Addr()); err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		ws[i] = w
	}
	return ws
}

// allReduceUDP runs one AllReduce on every worker at once, each on its
// own input, and fails on any error or after a minute.
func allReduceUDP(t *testing.T, ws []*Worker, inputs [][]float32) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ws[i].AllReduce(inputs[i])
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("UDP job timed out")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestUDPPacketShapeLimit: a UDP datagram carries at most 65 507 bytes
// (transport.MaxDatagram). A full packet of 64 float32 blocks of 256
// (66 328 bytes) does not fit, so both constructors refuse that shape and
// name the limit; 64 blocks at half precision and 63 at float32 fit, and
// each completes an AllReduce over loopback whose every packet is full.
func TestUDPPacketShapeLimit(t *testing.T) {
	const workers = 2
	base := Options{Workers: workers, Streams: 1, BlockSize: 256, RetransmitTimeout: 20 * time.Millisecond, StallTimeout: 30 * time.Second}
	wide := base
	wide.FusionWidth = 64
	if _, err := NewUDPAggregator(workers, map[int]string{workers: "127.0.0.1:0"}, wide); err == nil || !strings.Contains(err.Error(), "65507") {
		t.Fatalf("aggregator at 64 x 256 float32: err %v, want a refusal naming 65507", err)
	}
	if _, err := NewUDPWorker(0, map[int]string{0: "127.0.0.1:0", workers: "127.0.0.1:9"}, wide); err == nil || !strings.Contains(err.Error(), "65507") {
		t.Fatalf("worker at 64 x 256 float32: err %v, want a refusal naming 65507", err)
	}
	half := wide
	half.HalfPrecision = true
	narrower := base
	narrower.FusionWidth = 63
	for name, opts := range map[string]Options{"64 x 256 fp16": half, "63 x 256 fp32": narrower} {
		t.Run(name, func(t *testing.T) {
			ws := startUDPJob(t, opts)
			// Two packets of every block non-zero, in small integers, which
			// both precisions carry exactly.
			n := 2 * opts.FusionWidth * opts.BlockSize
			inputs := make([][]float32, workers)
			for w := range inputs {
				inputs[w] = make([]float32, n)
				for i := range inputs[w] {
					inputs[w][i] = float32(1 + (i+w)%3)
				}
			}
			allReduceUDP(t, ws, inputs)
			for w := range inputs {
				for i, v := range inputs[w] {
					if want := float32(1+i%3) + float32(1+(i+1)%3); v != want {
						t.Fatalf("worker %d elem %d: %v, want %v", w, i, v, want)
					}
				}
			}
		})
	}
}

func TestPublicHierarchical(t *testing.T) {
	c, err := NewLocalCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	locals := [][][]float32{
		{{1, 2}, {10, 20}},
		{{100, 200}, {1000, 2000}},
	}
	runAll(t, 2, func(w int) error { return c.Worker(w).HierarchicalAllReduce(locals[w]) })
	for node := range locals {
		for dev := range locals[node] {
			if locals[node][dev][0] != 1111 || locals[node][dev][1] != 2222 {
				t.Fatalf("node %d dev %d: %v", node, dev, locals[node][dev])
			}
		}
	}
}

func TestPublicAsyncBuckets(t *testing.T) {
	// Gradient-bucket pipelining: several AllReduce operations in flight
	// per worker, as a DDP integration would issue them.
	c, err := NewLocalCluster(Options{Workers: 3, Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const nBuckets = 5
	rng := rand.New(rand.NewSource(4))
	buckets := make([][][]float32, nBuckets)
	wants := make([][]float32, nBuckets)
	for b := range buckets {
		n := 1_000 + 333*b
		buckets[b] = make([][]float32, 3)
		wants[b] = make([]float32, n)
		for w := range buckets[b] {
			buckets[b][w] = make([]float32, n)
			for i := range buckets[b][w] {
				if rng.Float64() < 0.3 {
					v := float32(rng.NormFloat64())
					buckets[b][w][i] = v
					wants[b][i] += v
				}
			}
		}
	}
	runAll(t, 3, func(w int) error {
		pendings := make([]*Pending, nBuckets)
		for b := range buckets {
			p, err := c.Worker(w).AllReduceAsync(buckets[b][w])
			if err != nil {
				return err
			}
			pendings[b] = p
		}
		for _, p := range pendings {
			if err := p.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	for b := range buckets {
		for w := range buckets[b] {
			for i := range wants[b] {
				d := float64(buckets[b][w][i]) - float64(wants[b][i])
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("bucket %d worker %d elem %d: %v vs %v", b, w, i, buckets[b][w][i], wants[b][i])
				}
			}
		}
	}
}

// TestCLIGracefulDrain sends SIGTERM to a real cmd/aggregator process
// mid-collective and verifies the rolling-restart contract: the
// in-flight operation runs to completion and yields the correct sum, a
// job open attempted during the drain is refused with the typed
// ErrAggregatorDraining (not a timeout), and the process exits cleanly
// once quiescent.
func TestCLIGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := dir + "/aggregator"
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/aggregator").CombinedOutput(); err != nil {
		t.Fatalf("build aggregator: %v\n%s", err, out)
	}

	const workers = 2
	a := startAggregatorCLI(t, bin, "-drain-timeout", "60s")
	agg, aggLog, exited, aggAddr := a.cmd, a.log, a.exited, a.addr

	opts := Options{Workers: workers, Streams: 2, StallTimeout: 30 * time.Second}
	ws := make([]*Worker, workers)
	for i := 0; i < workers; i++ {
		w, err := NewTCPWorker(i, map[int]string{i: "127.0.0.1:0", 2: aggAddr}, opts)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		ws[i] = w
	}

	// Worker 0 starts a collective alone; with worker 1 lagging, the
	// operation is admitted and held in flight when the signal lands.
	const n = 50_000
	inputs := make([][]float32, workers)
	want := make([]float32, n)
	rng := rand.New(rand.NewSource(9))
	for w := range inputs {
		inputs[w] = make([]float32, n)
		for i := range inputs[w] {
			v := float32(rng.NormFloat64())
			inputs[w][i] = v
			want[i] += v
		}
	}
	p0, err := ws[0].AllReduceAsync(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let worker 0's packets admit the op
	if err := agg.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	drainDeadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(aggLog(), "draining") {
		if time.Now().After(drainDeadline) {
			t.Fatalf("aggregator never reported draining\nagg: %s", aggLog())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// New admissions are refused typed while the in-flight op is live.
	if _, err := ws[1].OpenJob("prod", "latecomer"); !errors.Is(err, ErrAggregatorDraining) {
		t.Fatalf("OpenJob during drain: got %v, want ErrAggregatorDraining", err)
	}

	// The held collective still completes: worker 1 joins, both finish.
	if err := ws[1].AllReduce(inputs[1]); err != nil {
		t.Fatalf("worker 1 in-flight collective: %v", err)
	}
	if err := p0.Wait(); err != nil {
		t.Fatalf("worker 0 in-flight collective: %v", err)
	}
	for w := range inputs {
		for i := range want {
			d := float64(inputs[w][i]) - float64(want[i])
			if d > 1e-3 || d < -1e-3 {
				t.Fatalf("worker %d elem %d: %v vs %v", w, i, inputs[w][i], want[i])
			}
		}
	}

	select {
	case <-exited:
		if a.exitErr != nil {
			t.Fatalf("aggregator exit: %v\nagg: %s", a.exitErr, aggLog())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("aggregator did not exit after drain\nagg: %s", aggLog())
	}
	if !strings.Contains(aggLog(), "drained cleanly") {
		t.Fatalf("aggregator log missing clean-drain report:\n%s", aggLog())
	}
}

// aggregatorCLI is a running cmd/aggregator subprocess serving two workers
// as node 2.
type aggregatorCLI struct {
	cmd     *exec.Cmd
	log     func() string // everything it has printed so far
	addr    string        // where it listens
	exited  chan struct{} // closed once it has been waited for
	exitErr error         // its Wait result, valid after exited
}

// startAggregatorCLI starts the built aggregator binary and waits for its
// address. Every endpoint binds port 0: a fixed port can be held by an
// earlier run's TIME_WAIT socket. The aggregator reports where it listens
// in its "serving" line; workers are dialled by nobody (the aggregator
// answers over their inbound connections) and need no known address. The
// process is killed at test end if it has not exited by then.
func startAggregatorCLI(t *testing.T, bin string, args ...string) *aggregatorCLI {
	t.Helper()
	a := &aggregatorCLI{exited: make(chan struct{})}
	a.cmd = exec.Command(bin, append([]string{"-id", "2", "-workers", "2", "-nodes", "2=127.0.0.1:0"}, args...)...)
	out := &strings.Builder{}
	var mu sync.Mutex
	a.cmd.Stdout = lockedWriter{&mu, out}
	a.cmd.Stderr = lockedWriter{&mu, out}
	if err := a.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	a.log = func() string { mu.Lock(); defer mu.Unlock(); return out.String() }
	go func() { a.exitErr = a.cmd.Wait(); close(a.exited) }()
	t.Cleanup(func() {
		select {
		case <-a.exited:
		default:
			a.cmd.Process.Kill()
			<-a.exited
		}
	})
	bindDeadline := time.Now().Add(10 * time.Second)
	for {
		// Only a complete line: the log is read while it is written.
		if _, rest, ok := strings.Cut(a.log(), " over tcp on "); ok && strings.Contains(rest, "\n") {
			a.addr, _, _ = strings.Cut(rest, "\n")
			return a
		}
		if time.Now().After(bindDeadline) {
			t.Fatalf("aggregator never reported its address\nagg: %s", a.log())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lockedWriter serializes subprocess output capture against concurrent
// reads from the test goroutine.
type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// TestCLIBinaries builds the actual cmd/aggregator and cmd/worker
// binaries and runs a 2-worker TCP job through them, validating the CLI
// plumbing end to end.
func TestCLIBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	build := func(name string) string {
		bin := dir + "/" + name
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		return bin
	}
	aggBin := build("aggregator")
	workerBin := build("worker")

	a := startAggregatorCLI(t, aggBin)
	defer func() {
		a.cmd.Process.Signal(os.Interrupt)
		<-a.exited
	}()
	nodes := "2=" + a.addr

	run := func(id int, out *strings.Builder) *exec.Cmd {
		c := exec.Command(workerBin,
			"-id", fmt.Sprint(id), "-workers", "2", "-nodes", nodes,
			"-size", "200000", "-sparsity", "0.9", "-iters", "3", "-warmup", "1")
		c.Stdout, c.Stderr = out, out
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	var o0, o1 strings.Builder
	w0 := run(0, &o0)
	w1 := run(1, &o1)
	waitErr := make(chan error, 2)
	go func() { waitErr <- w0.Wait() }()
	go func() { waitErr <- w1.Wait() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-waitErr:
			if err != nil {
				t.Fatalf("worker failed: %v\nworker0: %s\nworker1: %s\nagg: %s",
					err, o0.String(), o1.String(), a.log())
			}
		case <-time.After(90 * time.Second):
			t.Fatalf("workers timed out\nworker0: %s\nworker1: %s", o0.String(), o1.String())
		}
	}
	if !strings.Contains(o0.String(), "goodput") {
		t.Fatalf("worker 0 output missing report: %s", o0.String())
	}
}
