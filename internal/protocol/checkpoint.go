package protocol

import (
	"sort"

	"omnireduce/internal/wire"
)

// Deprecated: this file is the full-machine snapshot that result mirroring
// (AggregatorMachine.AdoptResult) replaced. Nothing restores one any more.
// Checkpoint and its types are frozen because the repository benchmark
// (bench/ladder.go, its own module) still times Checkpoint, and the file
// goes whole when that rung is re-pointed.

// AccumCheckpoint is one column accumulator's state. Exactly one of the
// three representations is populated, matching the machine's mode: F for
// plain float32 summation, Q for fixed-point, Per for deterministic
// worker-ordered reduction (Per[wid] nil = worker absent this round).
type AccumCheckpoint struct {
	F   []float32
	Q   []int64
	Per [][]float32
}

// SlotCheckpoint is one dense (slot, tensor) aggregation state.
type SlotCheckpoint struct {
	Slot      uint16
	TensorID  uint32
	BlockSize int
	Cols      int
	DType     uint8

	Cur     []int64
	Nexts   [][]int64
	MinNext []int64
	Seen    []bool
	Count   int
	Round   uint8
	Acc     []AccumCheckpoint

	LastRes     *wire.Packet
	LastResSize int
}

// SparseCheckpoint is one sparse tensor's Algorithm 3 merge state.
type SparseCheckpoint struct {
	TensorID uint32
	Sorted   bool
	Keys     []int32
	Vals     []float32
	Flushed  int
	Values   map[int32]float32
	Pending  []int32
	NextKey  []int64
	Sent     int64
}

// ArchiveCheckpoint is one finished tensor's replayable final result.
type ArchiveCheckpoint struct {
	Slot     uint16
	TensorID uint32
	Size     int
	Packet   wire.Packet
}

// FinishedCheckpoint is one (slot, namespace) finished-sequence tracker.
type FinishedCheckpoint struct {
	Slot   uint16
	NS     uint32
	UpTo   uint32
	Except []uint32
}

// AggCheckpoint is a complete aggregator-machine snapshot.
type AggCheckpoint struct {
	Workers  int
	Slots    []SlotCheckpoint
	Sparse   []SparseCheckpoint
	Archive  []ArchiveCheckpoint
	Finished []FinishedCheckpoint
	Stats    AggStats
}

// Checkpoint snapshots the machine's protocol state. Slices and packets
// in the snapshot alias live machine state: the snapshot must be encoded
// (or deep-copied) before the next machine call. Entries are sorted by
// (slot, tensor) so identical machine states produce identical
// checkpoints regardless of map iteration order.
//
// Deprecated: see above. Tests use it to compare two machines' state.
func (m *AggregatorMachine) Checkpoint() *AggCheckpoint {
	ck := &AggCheckpoint{Workers: m.cfg.Workers, Stats: m.stats}
	for si := range m.table {
		for _, e := range m.table[si] {
			sl := e.sl
			sc := SlotCheckpoint{
				Slot:        uint16(si),
				TensorID:    sl.tensorID,
				BlockSize:   sl.blockSize,
				Cols:        sl.cols,
				DType:       sl.dtype,
				Cur:         sl.cur,
				Nexts:       sl.nexts,
				MinNext:     sl.minNext,
				Seen:        sl.seen,
				Count:       sl.count,
				Round:       sl.round,
				LastRes:     sl.lastRes,
				LastResSize: sl.lastResSize,
			}
			for c := range sl.acc {
				a := &sl.acc[c]
				sc.Acc = append(sc.Acc, AccumCheckpoint{F: a.f, Q: a.q, Per: a.per})
			}
			ck.Slots = append(ck.Slots, sc)
		}
	}
	sort.Slice(ck.Slots, func(i, j int) bool {
		if ck.Slots[i].Slot != ck.Slots[j].Slot {
			return ck.Slots[i].Slot < ck.Slots[j].Slot
		}
		return ck.Slots[i].TensorID < ck.Slots[j].TensorID
	})
	for tid, sa := range m.sparse {
		ck.Sparse = append(ck.Sparse, SparseCheckpoint{
			TensorID: tid,
			Sorted:   sa.sorted,
			Keys:     sa.keys,
			Vals:     sa.vals,
			Flushed:  sa.flushed,
			Values:   sa.values,
			Pending:  sa.pending,
			NextKey:  sa.nextKey,
			Sent:     sa.sent,
		})
	}
	sort.Slice(ck.Sparse, func(i, j int) bool { return ck.Sparse[i].TensorID < ck.Sparse[j].TensorID })
	for slot, bucket := range m.archive {
		for _, ar := range bucket {
			ck.Archive = append(ck.Archive, ArchiveCheckpoint{
				Slot: uint16(slot), TensorID: ar.pkt.TensorID, Size: ar.size, Packet: ar.pkt,
			})
		}
	}
	sort.Slice(ck.Archive, func(i, j int) bool {
		if ck.Archive[i].Slot != ck.Archive[j].Slot {
			return ck.Archive[i].Slot < ck.Archive[j].Slot
		}
		return ck.Archive[i].TensorID < ck.Archive[j].TensorID
	})
	for slot, fm := range m.finished {
		for ns, f := range fm {
			fc := FinishedCheckpoint{Slot: slot, NS: ns, UpTo: f.upTo}
			for seq := range f.except {
				fc.Except = append(fc.Except, seq)
			}
			sort.Slice(fc.Except, func(i, j int) bool { return fc.Except[i] < fc.Except[j] })
			ck.Finished = append(ck.Finished, fc)
		}
	}
	sort.Slice(ck.Finished, func(i, j int) bool {
		if ck.Finished[i].Slot != ck.Finished[j].Slot {
			return ck.Finished[i].Slot < ck.Finished[j].Slot
		}
		return ck.Finished[i].NS < ck.Finished[j].NS
	})
	return ck
}
