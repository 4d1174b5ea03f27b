package core

import (
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
)

// Sparse (key-value) mode, §3.3 / Algorithm 3. The streaming logic lives
// in protocol.SparseWorkerMachine (worker side) and
// protocol.AggregatorMachine (aggregator side, reached through the same
// Run loop as dense traffic). The worker runs it through the same driver
// loop as dense collectives (Worker.drive); this file builds the machine.

// AllReduceSparse sums COO tensors across workers and returns the global
// result (also in COO form, keys ascending). All workers must call it
// collectively. The result may be denser than any input. An input that
// is not a well-formed COO tensor (tensor.COO.Check: keys strictly
// ascending, each in [0, Dim)) fails with an error wrapping
// tensor.ErrKeyOrder before anything is sent.
//
// As in the paper, sparse mode targets reliable transports (the paper
// leaves a lossy realization as future work); AllReduceSparse returns an
// error if the configuration is not Reliable.
func (w *Worker) AllReduceSparse(in *tensor.COO) (*tensor.COO, error) {
	return w.job.AllReduceSparse(in)
}

// runAllReduceSparse runs one key-value collective: it builds and starts a
// pooled protocol.SparseWorkerMachine over in and hands it to the driver
// loop. pcfg and wid are the operation's job parameters (see
// runAllReduce).
func (w *Worker) runAllReduceSparse(in *tensor.COO, tid uint32, st *opState, pcfg protocol.Config, wid int) (*tensor.COO, error) {
	// As in runAllReduce, the clock covers the per-op input pass (here the
	// constructor's key-order check over every pair).
	start := time.Now()
	m, err := protocol.GetSparseWorkerMachine(pcfg, wid, tid, in)
	if err != nil {
		return nil, err
	}
	defer m.Recycle()
	st.eb.Reset()
	m.Start(&st.eb)
	st.kv = kvOp{m, st.dec}
	if err := w.drive(&st.kv, tid, st, start); err != nil {
		return nil, err
	}
	// The machine assembles into its pooled run; the caller gets one
	// exact-size copy.
	return m.Result().Clone(), nil
}
