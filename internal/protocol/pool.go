package protocol

import (
	"sync"
	"sync/atomic"

	"omnireduce/internal/obs"
	"omnireduce/internal/tensor"
	"omnireduce/internal/wire"
)

func init() {
	obs.RegisterPool("protocol_worker_machines", WorkerMachinePoolBalance)
	obs.RegisterPool("protocol_agg_slots", AggSlotPoolBalance)
	obs.RegisterPool("protocol_sparse_slots", SparseSlotPoolBalance)
	obs.RegisterPool("protocol_sparse_worker_machines", SparseWorkerMachinePoolBalance)
}

// EmitBuf is a caller-owned, reusable emit accumulator. Machines append
// emits to it instead of returning fresh []Emit slices, so a driver that
// keeps one EmitBuf per loop replays the same backing array round after
// round. The contents are valid until the next Reset (drivers Reset
// immediately before each machine call, consume, repeat).
type EmitBuf struct {
	e []Emit
}

// Reset empties the buffer, retaining capacity.
func (b *EmitBuf) Reset() { b.e = b.e[:0] }

// Append adds one emit.
func (b *EmitBuf) Append(e Emit) { b.e = append(b.e, e) }

// Emits returns the accumulated emits. The slice is valid until the next
// Reset or Append.
func (b *EmitBuf) Emits() []Emit { return b.e }

// Len reports the number of accumulated emits.
func (b *EmitBuf) Len() int { return len(b.e) }

// workerMachinePool recycles WorkerMachines (with their stream tables,
// packet shells, and next-offset scratch) across collectives.
var workerMachinePool sync.Pool

// sparseWorkerMachinePool recycles SparseWorkerMachines (with their output
// run) across key-value collectives.
var sparseWorkerMachinePool sync.Pool

var (
	workerMachineGets       atomic.Int64
	workerMachinePuts       atomic.Int64
	aggSlotGets             atomic.Int64
	aggSlotPuts             atomic.Int64
	sparseSlotGets          atomic.Int64
	sparseSlotPuts          atomic.Int64
	sparseWorkerMachineGets atomic.Int64
	sparseWorkerMachinePuts atomic.Int64
)

// GetWorkerMachine returns a pooled worker machine initialized exactly
// like NewWorkerMachine. Callers must Recycle it when the collective
// finishes (and no emitted packet can still be in flight through a
// driver's encoder).
func GetWorkerMachine(cfg Config, workerID int, tensorID uint32) *WorkerMachine {
	workerMachineGets.Add(1)
	obs.Emit(obs.EvMachinePoolGet, tensorID, 0)
	m, _ := workerMachinePool.Get().(*WorkerMachine)
	if m == nil {
		m = &WorkerMachine{}
	}
	m.init(cfg, workerID, tensorID)
	return m
}

// Recycle returns a machine obtained from GetWorkerMachine to the pool.
// The machine must not be used afterwards.
func (m *WorkerMachine) Recycle() {
	workerMachinePuts.Add(1)
	obs.Emit(obs.EvMachinePoolPut, m.tid, 0)
	m.view = nil // drop the tensor reference; keep streams/shells warm
	workerMachinePool.Put(m)
}

// WorkerMachinePoolBalance reports cumulative get/put counts for the
// worker-machine pool (obs leak audit). Every live collective holds
// exactly one machine, so a quiesced system balances.
func WorkerMachinePoolBalance() (gets, puts int64) {
	return workerMachineGets.Load(), workerMachinePuts.Load()
}

// GetSparseWorkerMachine returns a pooled sparse worker machine
// initialized exactly like NewSparseWorkerMachine, which it also fails
// like. A recycled machine assembles into the output run it kept, so a
// warm pool allocates nothing per collective; Result is valid until
// Recycle. Callers must Recycle the machine when the collective finishes.
func GetSparseWorkerMachine(cfg Config, workerID int, tensorID uint32, in *tensor.COO) (*SparseWorkerMachine, error) {
	m, _ := sparseWorkerMachinePool.Get().(*SparseWorkerMachine)
	if m == nil {
		m = &SparseWorkerMachine{}
	}
	if err := m.init(cfg, workerID, tensorID, in); err != nil {
		sparseWorkerMachinePool.Put(m)
		return nil, err
	}
	sparseWorkerMachineGets.Add(1)
	obs.Emit(obs.EvMachinePoolGet, tensorID, 3)
	return m, nil
}

// Recycle returns a machine obtained from GetSparseWorkerMachine to the
// pool. Neither the machine nor its Result may be used afterwards.
func (m *SparseWorkerMachine) Recycle() {
	sparseWorkerMachinePuts.Add(1)
	obs.Emit(obs.EvMachinePoolPut, m.tid, 3)
	// Drop the input tensor's references; keep the output run warm.
	m.in = nil
	m.shells = [2]wire.SparsePacket{}
	sparseWorkerMachinePool.Put(m)
}

// SparseWorkerMachinePoolBalance is WorkerMachinePoolBalance for sparse
// worker machines.
func SparseWorkerMachinePoolBalance() (gets, puts int64) {
	return sparseWorkerMachineGets.Load(), sparseWorkerMachinePuts.Load()
}

// AggSlotPoolBalance reports cumulative get/put counts for aggregator
// dense-slot state (free-listed per machine). gets-puts equals the number
// of currently-open slots across all machines.
func AggSlotPoolBalance() (gets, puts int64) {
	return aggSlotGets.Load(), aggSlotPuts.Load()
}

// SparseSlotPoolBalance is AggSlotPoolBalance for sparse slot state.
func SparseSlotPoolBalance() (gets, puts int64) {
	return sparseSlotGets.Load(), sparseSlotPuts.Load()
}
