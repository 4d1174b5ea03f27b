package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// liveCluster is a hand-assembled deployment for failover tests: unlike
// startCluster it allows per-aggregator configs (checkpoint peers,
// standbys), mid-test kills, and an explicit shutdown so aggregator
// stats can be asserted inside the test body.
type liveCluster struct {
	nw      *transport.Network
	conns   map[int]transport.Conn
	aggs    map[int]*Aggregator
	workers []*Worker
	wg      sync.WaitGroup
	errc    chan error
	downed  map[int]bool
}

func newLiveCluster(workers int) *liveCluster {
	return &liveCluster{
		nw:     transport.NewNetwork(workers, 4096),
		conns:  make(map[int]transport.Conn),
		aggs:   make(map[int]*Aggregator),
		errc:   make(chan error, 8),
		downed: make(map[int]bool),
	}
}

func (c *liveCluster) addAgg(t *testing.T, id int, cfg Config) *Aggregator {
	t.Helper()
	return c.addAggOn(t, id, c.nw.AddNode(id), cfg)
}

// addAggOn is addAgg over a caller-wrapped endpoint of node id.
func (c *liveCluster) addAggOn(t *testing.T, id int, conn transport.Conn, cfg Config) *Aggregator {
	t.Helper()
	agg, err := NewAggregator(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.conns[id] = conn
	c.aggs[id] = agg
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := agg.Run(); err != nil {
			c.errc <- err
		}
	}()
	return agg
}

func (c *liveCluster) addWorkers(t *testing.T, cfg Config) {
	t.Helper()
	for i := 0; i < cfg.Workers; i++ {
		w, err := NewWorker(c.nw.Conn(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
}

// kill closes an aggregator's connection: its Run loop exits and every
// datagram sent to it from now on is silently dropped, exactly like a
// crashed node on a lossy network.
func (c *liveCluster) kill(id int) {
	c.downed[id] = true
	c.conns[id].Close()
}

func (c *liveCluster) shutdown(t *testing.T) {
	t.Helper()
	for _, w := range c.workers {
		w.Close()
	}
	for id, conn := range c.conns {
		if !c.downed[id] {
			conn.Close()
		}
	}
	c.wg.Wait()
	select {
	case err := <-c.errc:
		t.Fatalf("aggregator error: %v", err)
	default:
	}
}

// TestRebindGraceSuppressesOnePeriod pins the stall watchdog's one
// exception: a view change that rebinds an in-flight operation buys it
// exactly one silent watchdog period (the failover handoff), after which
// a wedge is a real stall again and ends in a typed error with a bundle.
func TestRebindGraceSuppressesOnePeriod(t *testing.T) {
	dir := t.TempDir()
	conn := wedgedConn()
	defer conn.Close()
	const stall = 50 * time.Millisecond
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

	suppressedBefore := obsWatchdogSuppressed.Load()
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(i%5) + 1
	}
	p, err := w.AllReduceAsync(data)
	if err != nil {
		t.Fatal(err)
	}
	w.maybeApplyView(protocol.View{Epoch: 1, Workers: []int{0}, Aggregators: []int{1}})

	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired after the grace period")
	}
	if got := obsWatchdogSuppressed.Load() - suppressedBefore; got != 1 {
		t.Fatalf("watchdog suppressed %d periods after one rebind, want 1", got)
	}
	if !errors.Is(err, ErrOpStalled) {
		t.Fatalf("post-grace error %v is not ErrOpStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) || se.BundlePath == "" {
		t.Fatalf("post-grace stall carries no bundle path: %v", err)
	}
	if _, err := os.Stat(se.BundlePath); err != nil {
		t.Fatalf("bundle path not on disk: %v", err)
	}
}

// TestViewChangeDuringOps adopts views with rising epochs while both
// formats' collectives and a named job's lifecycle run on the same worker.
// The view swaps the worker's aggregator list; under the race detector
// this fails if any op or job-control path reads the list outside the
// lock the swap holds. The ops are tiny and may all finish before the
// view applier is first scheduled, so the sequence repeats until at least
// two views have been applied, or a deadline passes.
func TestViewChangeDuringOps(t *testing.T) {
	c := startCluster(t, Config{Workers: 1, Reliable: true}, 0, 1)
	w := c.workers[0]
	aggs := c.cfg.Aggregators

	stop := make(chan struct{})
	views := make(chan uint32, 1)
	var applied atomic.Uint32
	go func() {
		epoch := uint32(0)
		defer func() { views <- epoch }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			epoch++
			w.maybeApplyView(protocol.View{Epoch: epoch, Workers: []int{0}, Aggregators: aggs})
			applied.Store(epoch)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	data := make([]float32, 256)
	kv := tensor.NewCOO(len(data))
	kv.Append(3, 1)
	kv.Append(200, 2)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 60 || (applied.Load() < 2 && time.Now().Before(deadline)); i++ {
		for j := range data {
			data[j] = float32(j%5) + 1
		}
		if err := w.AllReduce(data); err != nil {
			t.Fatalf("op %d: AllReduce: %v", i, err)
		}
		if data[7] != 3 {
			t.Fatalf("op %d: AllReduce sum %v, want 3", i, data[7])
		}
		out, err := w.AllReduceSparse(kv)
		if err != nil {
			t.Fatalf("op %d: AllReduceSparse: %v", i, err)
		}
		if out.Len() != 2 || out.Values[1] != 2 {
			t.Fatalf("op %d: AllReduceSparse result %v %v", i, out.Keys, out.Values)
		}
		if i%10 == 0 {
			j, err := w.OpenJob("views", fmt.Sprintf("job%d", i))
			if err != nil {
				t.Fatalf("op %d: OpenJob: %v", i, err)
			}
			if err := j.AllReduce(data); err != nil {
				t.Fatalf("op %d: job AllReduce: %v", i, err)
			}
			j.Close()
		}
	}
	close(stop)
	if epoch := <-views; epoch < 2 {
		t.Fatalf("only %d views applied: the ops never overlapped a view change", epoch)
	}
}

// TestFailoverLiveChaosKill is the tentpole end-to-end: an aggregator
// serving live collectives is killed mid-flight, a standby that has been
// receiving its checkpoint stream is activated into the next view, the
// workers adopt the view in-band, rebind, replay, and every collective
// completes with the exact deterministic dense sum.
func TestFailoverLiveChaosKill(t *testing.T) {
	const (
		W       = 3
		aggA    = 3
		aggB    = 4
		standby = 5
		rounds  = 3
	)
	view1 := protocol.View{Epoch: 1, Workers: []int{0, 1, 2}, Aggregators: []int{aggA, aggB}}
	base := Config{
		Workers:            W,
		Aggregators:        []int{aggA, aggB},
		Reliable:           false,
		DeterministicOrder: true,
		BlockSize:          32,
		FusionWidth:        4,
		Streams:            2,
		RetransmitTimeout:  3 * time.Millisecond,
		View:               &view1,
	}

	c := newLiveCluster(W)
	primCfg := base
	primCfg.CheckpointPeers = []int{standby}
	c.addAgg(t, aggA, primCfg)
	// The doomed primary gets exactly one message out — its first
	// checkpoint frame to the standby — and is blackholed otherwise, so
	// the kill below lands at a point the protocol defines rather than
	// one a race decides: under the output-commit rule that step's results
	// have reached no worker, and the first collective cannot finish
	// without the standby however fast the others run.
	doomed := transport.NewChaosFabric(transport.Scenario{Phases: []transport.Phase{
		{Packets: 1, Partitions: []transport.Partition{{From: aggB, To: 0}, {From: aggB, To: 1}, {From: aggB, To: 2}}},
		{Partitions: []transport.Partition{{From: aggB, To: -1}}},
	}})
	c.addAggOn(t, aggB, doomed.Wrap(c.nw.AddNode(aggB)), primCfg)
	sbCfg := base
	sbCfg.Standby = true
	sb := c.addAgg(t, standby, sbCfg)
	c.addWorkers(t, base)

	restoredBefore := obsAggCkRestored.Load()
	viewsBefore := obsWorkerViewChanges.Load()

	inputs := make([][][]float32, rounds)
	wants := make([][]float32, rounds)
	for r := range inputs {
		inputs[r] = randomInputs(32*256, W, 0, int64(1000+r))
		wants[r] = expectedSum(inputs[r])
	}

	var wg sync.WaitGroup
	errs := make([]error, W)
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if errs[i] = w.AllReduce(inputs[r][i]); errs[i] != nil {
					return
				}
			}
		}(i, w)
	}

	// Kill aggB once the standby provably holds its one checkpoint — that
	// is the state the takeover will restore from.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sb.CheckpointsFrom(aggB) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never received a checkpoint from the doomed primary")
		}
		time.Sleep(time.Millisecond)
	}
	c.kill(aggB)
	if err := sb.Activate(protocol.View{Epoch: 2, Workers: []int{0, 1, 2}, Aggregators: []int{aggA, standby}}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("collectives never completed after failover")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	// DeterministicOrder makes the result the exact worker-ordered sum on
	// every worker, failover or not.
	for r := 0; r < rounds; r++ {
		for i := 0; i < W; i++ {
			for j, v := range inputs[r][i] {
				if v != wants[r][j] {
					t.Fatalf("round %d worker %d elem %d: %g != %g (result drifted across failover)", r, i, j, v, wants[r][j])
				}
			}
		}
	}

	if got := obsWorkerViewChanges.Load() - viewsBefore; got < W {
		t.Fatalf("only %d worker view adoptions, want >= %d", got, W)
	}
	if obsAggCkRestored.Load() == restoredBefore {
		t.Fatal("standby never restored a checkpoint")
	}
	if sb.Standby() {
		t.Fatal("standby still passive after Activate")
	}
	if got := sb.View().Epoch; got != 2 {
		t.Fatalf("standby epoch %d after activation", got)
	}

	c.shutdown(t)
	if sb.Stats.RoundsCompleted == 0 {
		t.Fatal("promoted standby completed no rounds: traffic never failed over")
	}
	if surv := c.aggs[aggA].Stats.RoundsCompleted; surv == 0 {
		t.Fatal("surviving primary completed no rounds")
	}
}

// TestStandbyFramesPerOp counts the mirror frames one live collective
// sends its standby: in reliable mode one per (slot, tensor) pair the
// operation used — the final results, all a successor between collectives
// resumes from — and in versioned mode one per concluded round. Either way
// the standby ends up holding the final results.
func TestStandbyFramesPerOp(t *testing.T) {
	const (
		W       = 2
		agg     = 2
		standby = 3
	)
	for _, reliable := range []bool{true, false} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			view := protocol.View{Epoch: 1, Workers: []int{0, 1}, Aggregators: []int{agg}}
			base := Config{Workers: W, Aggregators: []int{agg}, Reliable: reliable,
				BlockSize: 32, FusionWidth: 4, Streams: 2, View: &view}
			c := newLiveCluster(W)
			primCfg := base
			primCfg.CheckpointPeers = []int{standby}
			c.addAgg(t, agg, primCfg)
			sbCfg := base
			sbCfg.Standby = true
			sb := c.addAgg(t, standby, sbCfg)
			c.addWorkers(t, base)

			inputs := randomInputs(32*256, W, 0, 7)
			want := expectedSum(inputs)
			before := obsAggCkSent.Load()
			var wg sync.WaitGroup
			errs := make([]error, W)
			for i, w := range c.workers {
				wg.Add(1)
				go func(i int, w *Worker) {
					defer wg.Done()
					errs[i] = w.AllReduce(inputs[i])
				}(i, w)
			}
			wg.Wait()
			frames := obsAggCkSent.Load() - before
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
				for j, v := range inputs[i] {
					if v != want[j] {
						t.Fatalf("worker %d elem %d: %g != %g", i, j, v, want[j])
					}
				}
			}
			pairs := base.Streams // 256 blocks: every slot serves the tensor
			deadline := time.Now().Add(10 * time.Second)
			for sb.CheckpointsFrom(agg) != pairs {
				if time.Now().After(deadline) {
					t.Fatalf("standby holds %d results, want the %d final ones", sb.CheckpointsFrom(agg), pairs)
				}
				time.Sleep(time.Millisecond)
			}
			c.shutdown(t)
			rounds := c.aggs[agg].Stats.RoundsCompleted
			wantFrames := int64(pairs)
			if !reliable {
				wantFrames = rounds
			}
			if frames != wantFrames || rounds <= int64(pairs) {
				t.Fatalf("%d mirror frames for %d rounds on %d slots, want %d", frames, rounds, pairs, wantFrames)
			}
		})
	}
}

// TestSparseLiveMultiAggregator is the live half of the sparse routing
// regression (the machine-level emit destinations are asserted in
// internal/protocol): with two aggregators, consecutive sparse tensors
// must spread across the set — under the old hardcoded Aggregators[0]
// routing the second node never saw a packet.
func TestSparseLiveMultiAggregator(t *testing.T) {
	const (
		W    = 2
		aggA = 2
		aggB = 3
	)
	cfg := Config{Workers: W, Aggregators: []int{aggA, aggB}, Reliable: true, BlockSize: 8}
	c := newLiveCluster(W)
	c.addAgg(t, aggA, cfg)
	c.addAgg(t, aggB, cfg)
	c.addWorkers(t, cfg)

	// Two sequential collectives: tensor IDs 1 then 2, which AggregatorFor
	// round-robins to aggB then aggA.
	for op := 0; op < 2; op++ {
		ins := make([]*tensor.COO, W)
		for i := range ins {
			s := tensor.NewCOO(200)
			for k := i * 60; k < i*60+40; k += 2 {
				s.Append(int32(k), float32(k+op)+0.5)
			}
			ins[i] = s
		}
		want := expectedSparseSum(ins)
		outs := make([]*tensor.COO, W)
		errs := make([]error, W)
		var wg sync.WaitGroup
		for i, w := range c.workers {
			wg.Add(1)
			go func(i int, w *Worker) {
				defer wg.Done()
				outs[i], errs[i] = w.AllReduceSparse(ins[i])
			}(i, w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("op %d worker %d: %v", op, i, err)
			}
		}
		for i, out := range outs {
			if !out.ToDense().ApproxEqual(want, 1e-5) {
				t.Fatalf("op %d worker %d: wrong sparse sum", op, i)
			}
		}
	}

	c.shutdown(t)
	for _, id := range []int{aggA, aggB} {
		if c.aggs[id].Stats.PacketsRecvd == 0 {
			t.Fatalf("aggregator %d saw no sparse traffic: routing is not spreading by tensor ID", id)
		}
	}
}

// lossyStandbyLink wraps the doomed primary's endpoint in
// TestFailoverLossyStandbyLink. Frames to the standby cross a lossy link:
// of every four, the second is dropped and the last two swap places. Frame
// lastFrame is dropped too and is the primary's last act but one: the
// results of that round still reach the workers, then the node falls
// silent, as if it had crashed there. Results to workers are otherwise
// untouched. It is a plain Conn, so transport.SendAll hands it one message
// at a time, in order.
type lossyStandbyLink struct {
	transport.Conn
	standby   int
	lastFrame int
	workers   int

	mu      sync.Mutex
	frames  int    // frames offered to the standby link so far
	held    []byte // a frame waiting to swap with its successor
	results int    // results let through since lastFrame was dropped
	dead    chan struct{}
}

func (c *lossyStandbyLink) Send(to int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.dead:
		return nil
	default:
	}
	if to != c.standby {
		if c.frames > c.lastFrame {
			if c.results++; c.results == c.workers {
				defer close(c.dead)
			}
		}
		return c.Conn.Send(to, data)
	}
	i := c.frames
	c.frames++
	switch {
	case i == c.lastFrame || i%4 == 1:
		return nil
	case i%4 == 2:
		c.held = append([]byte(nil), data...)
		return nil
	case i%4 == 3:
		if err := c.Conn.Send(to, data); err != nil {
			return err
		}
		return c.Conn.Send(to, c.held)
	}
	return c.Conn.Send(to, data)
}

// TestFailoverLossyStandbyLink is the standby behind a lossy link — legal
// now that a mirror frame is one result plus sixteen bytes and fits a
// datagram wherever results do. Frames from the doomed primary are
// dropped and reordered on the way; the reordered ones must not roll the
// standby's slot back, and the frame of the primary's last round never
// arrives although every worker holds that round's result. The successor
// is then exactly one round behind the workers, recovers by fast-forward,
// and every collective ends in the exact deterministic sum.
func TestFailoverLossyStandbyLink(t *testing.T) {
	const (
		W         = 3
		aggA      = 3
		aggB      = 4
		standby   = 5
		lastFrame = 9 // frame 8 arrives in order, 9 is lost
	)
	view1 := protocol.View{Epoch: 1, Workers: []int{0, 1, 2}, Aggregators: []int{aggA, aggB}}
	base := Config{
		Workers:            W,
		Aggregators:        []int{aggA, aggB},
		Reliable:           false,
		DeterministicOrder: true,
		BlockSize:          32,
		FusionWidth:        4,
		Streams:            2,
		RetransmitTimeout:  3 * time.Millisecond,
		View:               &view1,
	}
	c := newLiveCluster(W)
	primCfg := base
	primCfg.CheckpointPeers = []int{standby}
	c.addAgg(t, aggA, primCfg)
	link := &lossyStandbyLink{Conn: c.nw.AddNode(aggB), standby: standby, lastFrame: lastFrame, workers: W, dead: make(chan struct{})}
	c.addAggOn(t, aggB, link, primCfg)
	sbCfg := base
	sbCfg.Standby = true
	sb := c.addAgg(t, standby, sbCfg)
	c.addWorkers(t, base)

	// aggB serves stream 1 alone: 128 blocks in columns of 4, 32 rounds,
	// so round 9 is mid-collective.
	inputs := randomInputs(32*256, W, 0, 77)
	want := expectedSum(inputs)
	var wg sync.WaitGroup
	errs := make([]error, W)
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.AllReduce(inputs[i])
		}(i, w)
	}

	select {
	case <-link.dead:
	case <-time.After(10 * time.Second):
		t.Fatal("doomed primary never reached its last round")
	}
	// Frames 0..8 were offered; 1 and 5 were dropped, 2/3 and 6/7 swapped,
	// and all are rounds of one tensor on one slot: the store holds the
	// newest that arrived, round 8, and refused the two that came late.
	deadline := time.Now().Add(10 * time.Second)
	for sb.CheckpointsFrom(aggB) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby holds nothing from the doomed primary")
		}
		time.Sleep(time.Millisecond)
	}
	c.kill(aggB)
	if n := sb.CheckpointsFrom(aggB); n != 1 {
		t.Fatalf("standby holds %d frames of one slot's one tensor, want the newest only", n)
	}
	if err := sb.Activate(protocol.View{Epoch: 2, Workers: []int{0, 1, 2}, Aggregators: []int{aggA, standby}}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("collective never completed after failover")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 0; i < W; i++ {
		for j, v := range inputs[i] {
			if v != want[j] {
				t.Fatalf("worker %d elem %d: %g != %g (result drifted across failover)", i, j, v, want[j])
			}
		}
	}
	c.shutdown(t)
	if sb.Stats.FastForwards == 0 {
		t.Fatalf("successor never fast-forwarded: it was not behind the workers (%+v)", sb.Stats)
	}
}
