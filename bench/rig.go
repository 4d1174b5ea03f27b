package main

import (
	"errors"
	"fmt"
	"sync"

	"omnireduce/internal/core"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
)

// Node IDs: workers 0..workers-1, then the aggregator, then the standby.
const (
	aggID     = workers
	standbyID = workers + 1
)

// rig is one workload's deployment: the cluster plus the per-worker
// buffers its collectives run on. op(w) is worker w's share of one SPMD
// collective; the harness calls it from that worker's own goroutine.
type rig struct {
	work  [][]float32   // restored from the pristine inputs before each op
	kvOut []*tensor.COO // sparse results: each worker's result of the last op

	op        func(w int) error
	verify    func() bool  // the last op left the reference sum on every worker
	bytesSent func() int64 // Worker.Stats().BytesSent summed over workers
	close     func() error

	cw []*core.Worker // nil on the comparator rigs (ring, AGsparse)
}

func newRigBuffers(in *inputs) *rig {
	r := &rig{work: cloneInputs(in), kvOut: make([]*tensor.COO, workers)}
	// Bit-exact: two float32 operands sum the same in any order.
	r.verify = func() bool { return allEqual(r.work, in.ref) }
	r.bytesSent = func() int64 { return 0 }
	return r
}

// jobName returns multijob_chan's (tenant, job) pair for job index j.
func jobName(j int) (tenant, job string) {
	return fmt.Sprintf("tenant%d", j/2), fmt.Sprintf("job%d", j%2)
}

// perWorker runs f(w) for every worker concurrently and returns the first
// error; job opens are SPMD handshakes, so they must not be serialized.
func perWorker(f func(w int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = f(w)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fabric makes the raw endpoint of every node a core rig needs, keyed by
// node ID.
type fabric func(ids []int) (map[int]transport.Conn, error)

// chanFabric is the in-process channel fabric, sized as NewLocalCluster
// sizes it.
func chanFabric(ids []int) (map[int]transport.Conn, error) {
	nw := transport.NewNetwork(workers, 4096)
	eps := map[int]transport.Conn{}
	for _, id := range ids {
		eps[id] = nw.AddNode(id)
	}
	return eps, nil
}

// udpFabric binds every node to 127.0.0.1:0 and exchanges the addresses,
// as NewUDPAggregator/NewUDPWorker callers do.
func udpFabric(ids []int) (map[int]transport.Conn, error) {
	eps := map[int]transport.Conn{}
	trs := map[int]*transport.UDP{}
	fail := func(err error) (map[int]transport.Conn, error) {
		for _, c := range eps {
			c.Close()
		}
		return nil, err
	}
	for _, id := range ids {
		tr, err := transport.NewUDP(id, map[int]string{id: "127.0.0.1:0"})
		if err != nil {
			return fail(err)
		}
		eps[id], trs[id] = tr, tr
	}
	for _, a := range trs {
		for id, b := range trs {
			if a != b {
				if err := a.RegisterPeer(id, b.Addr()); err != nil {
					return fail(err)
				}
			}
		}
	}
	return eps, nil
}

func fabricOf(wl *workload) fabric {
	if wl.udp {
		return udpFabric
	}
	return chanFabric
}

// newRig deploys wl from internal/core over fab's endpoints. The public
// omnireduce package is a pass-through to exactly these constructors
// (NewLocalCluster: NewNetwork(workers, 4096) + core.NewAggregator +
// core.NewWorker; NewUDPAggregator/NewUDPWorker: transport.NewUDP + the
// same), with every option at its zero value; building the nodes here is
// what lets one deployment serve all runs: a traced run wraps every
// transport.Conn (wrap), the driver-no-fabric rung swaps the fabric, and
// checkpoint_chan adds a standby, none of which the public API has a seam
// for. A nil wrap leaves the endpoints bare.
func newRig(wl *workload, in *inputs, fab fabric, wrap func(transport.Conn) transport.Conn) (*rig, error) {
	if wrap == nil {
		wrap = func(c transport.Conn) transport.Conn { return c }
	}
	r := newRigBuffers(in)
	cfg := core.Config{Workers: workers, Aggregators: []int{aggID}, Reliable: !wl.udp}
	ids := []int{0, 1, aggID}
	if wl.checkpoint {
		cfg.View = &protocol.View{Epoch: 1, Workers: []int{0, 1}, Aggregators: []int{aggID}}
		ids = append(ids, standbyID)
	}
	eps, err := fab(ids)
	if err != nil {
		return nil, err
	}

	var aggWG sync.WaitGroup
	var aggMu sync.Mutex
	var aggErr error
	r.close = func() error {
		// Workers first, then every endpoint; Close is idempotent on all
		// the transports.
		for _, w := range r.cw {
			w.Close()
		}
		for _, c := range eps {
			c.Close()
		}
		aggWG.Wait()
		return aggErr
	}
	startAgg := func(id int, c core.Config) error {
		a, err := core.NewAggregator(wrap(eps[id]), c)
		if err != nil {
			return err
		}
		aggWG.Add(1)
		go func() {
			defer aggWG.Done()
			if err := a.Run(); err != nil {
				aggMu.Lock()
				aggErr = errors.Join(aggErr, err)
				aggMu.Unlock()
			}
		}()
		return nil
	}
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, err
	}

	primCfg := cfg
	if wl.checkpoint {
		sbCfg := cfg
		sbCfg.Standby = true
		if err := startAgg(standbyID, sbCfg); err != nil {
			return fail(err)
		}
		primCfg.CheckpointPeers = []int{standbyID}
	}
	if err := startAgg(aggID, primCfg); err != nil {
		return fail(err)
	}
	for i := 0; i < workers; i++ {
		w, err := core.NewWorker(wrap(eps[i]), cfg)
		if err != nil {
			return fail(err)
		}
		r.cw = append(r.cw, w)
	}
	r.bytesSent = func() (n int64) {
		for _, w := range r.cw {
			n += w.Stats.Snapshot().BytesSent
		}
		return n
	}

	var jobs [workers][jobsPerWorker]*core.Job
	if wl.kind == kindMultiJob {
		err := perWorker(func(w int) error {
			for j := range jobs[w] {
				job, err := r.cw[w].OpenJob(jobName(j))
				if err != nil {
					return err
				}
				jobs[w][j] = job
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
	}
	switch wl.kind {
	case kindDense:
		r.op = func(w int) error { return r.cw[w].AllReduce(r.work[w]) }
	case kindMultiJob:
		per := wl.elems / jobsPerWorker
		r.op = func(w int) error {
			var ps [jobsPerWorker]*core.Pending
			for j := range ps {
				p, err := jobs[w][j].AllReduceAsync(r.work[w][j*per : (j+1)*per])
				if err != nil {
					return err
				}
				ps[j] = p
			}
			var first error
			for _, p := range ps {
				if err := p.Wait(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
	case kindKV:
		r.op = func(w int) (err error) {
			r.kvOut[w], err = r.cw[w].AllReduceSparse(in.coo[w])
			return err
		}
		r.verify = func() bool {
			for _, out := range r.kvOut {
				if !equalCOO(out, in.refCOO) {
					return false
				}
			}
			return true
		}
	}
	return r, nil
}
