package core

import (
	"fmt"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/tensor"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// Sparse (key-value) mode, §3.3 / Algorithm 3. The streaming logic lives
// in protocol.SparseWorkerMachine (worker side) and
// protocol.AggregatorMachine (aggregator side, reached through the same
// Run loop as dense traffic); this file is the worker-side driver.

// AllReduceSparse sums COO tensors across workers and returns the global
// result (also in COO form, keys ascending). All workers must call it
// collectively. The result may be denser than any input.
//
// As in the paper, sparse mode targets reliable transports (the paper
// leaves a lossy realization as future work); AllReduceSparse returns an
// error if the configuration is not Reliable.
func (w *Worker) AllReduceSparse(in *tensor.COO) (*tensor.COO, error) {
	tid, st, err := w.beginOp()
	if err != nil {
		return nil, err
	}
	defer w.endOp(tid, st)
	return w.runAllReduceSparse(in, tid, st, w.cfg.proto(), w.id)
}

// runAllReduceSparse drives one sparse collective; pcfg and wid are the
// operation's job parameters (see runAllReduce).
func (w *Worker) runAllReduceSparse(in *tensor.COO, tid uint32, st *opState, pcfg protocol.Config, wid int) (*tensor.COO, error) {
	// As in runAllReduce, the clock covers the per-op input pass (here the
	// constructor's key-range check over every pair).
	start := time.Now()
	m, err := protocol.GetSparseWorkerMachine(pcfg, wid, tid, in)
	if err != nil {
		return nil, err
	}
	defer m.Recycle()
	defer func() { obsOpLatency.Observe(int64(time.Since(start))) }()

	q, dec := st.q, st.dec

	var published protocol.WorkerStats
	sync := func() {
		cur := m.Stats()
		w.Stats.add(cur, published)
		if obs.Enabled() && cur.BlocksSent > published.BlocksSent {
			obs.Emit(obs.EvBlockSent, tid, cur.BlocksSent-published.BlocksSent)
		}
		published = cur
	}
	defer sync()

	dispatch := func() error {
		return st.tx.sendEmits(w.conn, st.eb.Emits())
	}

	st.eb.Reset()
	m.Start(&st.eb)
	sync()
	if err := dispatch(); err != nil {
		return nil, err
	}

	// feed runs one inbound chunk through the machine. The decoded keys
	// and values point into the message; the machine has appended them to
	// the output by the time HandlePacket returns.
	feed := func(data []byte) error {
		if t := wire.PeekType(data); t != wire.TypeSparseResult {
			if rerr := rejectError(data); rerr != nil {
				return fmt.Errorf("core: worker %d tensor %#x: %w", w.id, tid, rerr)
			}
			return fmt.Errorf("core: worker %d: unexpected message type %d in sparse mode", w.id, t)
		}
		obs.Emit(obs.EvPacketRecvd, tid, int64(len(data)))
		p, err := dec.decodeSparse(data)
		if err != nil {
			return err
		}
		st.eb.Reset()
		err = m.HandlePacket(p, &st.eb)
		sync()
		return err
	}

	for !m.Done() {
		select {
		case msg := <-q.ch:
			// The buffer goes back as soon as the machine is done with the
			// views into it, before the emits are encoded.
			err := feed(msg.Data)
			transport.PutBuf(msg.Data)
			if err != nil {
				return nil, err
			}
			if err := dispatch(); err != nil {
				return nil, err
			}
		case <-q.fail:
			return nil, fmt.Errorf("core: worker %d tensor %d: %w", w.id, tid, ErrOpBackpressure)
		case <-w.closed:
			w.mu.Lock()
			err := w.recvErr
			w.mu.Unlock()
			return nil, fmt.Errorf("core: worker %d receive: %w", w.id, err)
		}
	}
	// The machine assembles into its pooled run; the caller gets one
	// exact-size copy.
	return m.Result().Clone(), nil
}
