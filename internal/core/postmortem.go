package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
)

// ErrOpStalled is the sentinel wrapped by every *StallError, so callers
// can errors.Is a watchdog failure without caring about the details.
var ErrOpStalled = errors.New("core: collective stalled")

// StallError fails a collective the stall watchdog gave up on. It wraps
// ErrOpStalled and carries the postmortem so callers (and tests) can
// inspect what the datapath looked like at the moment of the wedge.
type StallError struct {
	WorkerID int
	TensorID uint32
	// Idle is how long the operation went without an aggregator result
	// before the watchdog fired.
	Idle time.Duration
	// BundlePath is the postmortem JSON written under
	// Config.PostmortemDir ("" when no directory is configured or the
	// write failed; the in-memory bundle is authoritative either way).
	BundlePath string
	// Bundle is the captured postmortem.
	Bundle *Postmortem
}

func (e *StallError) Error() string {
	msg := fmt.Sprintf("core: worker %d tensor %d: no progress for %v", e.WorkerID, e.TensorID, e.Idle)
	if e.BundlePath != "" {
		msg += " (postmortem: " + e.BundlePath + ")"
	}
	return msg
}

func (e *StallError) Unwrap() error { return ErrOpStalled }

// Postmortem is the JSON bundle the stall watchdog captures: everything
// the observability layer knows at the moment a collective wedged, so
// the failure is debuggable offline. tracetool accepts the Flight dump
// inside it like any other flight-recorder dump.
type Postmortem struct {
	// CapturedAt is the wall-clock capture time (RFC3339Nano).
	CapturedAt string `json:"captured_at"`
	// WorkerID / TensorID identify the stalled operation.
	WorkerID int    `json:"worker_id"`
	TensorID uint32 `json:"tensor_id"`
	// IdleNs is how long the operation had made no progress.
	IdleNs int64 `json:"idle_ns"`
	// Machine is the stalled operation's protocol-machine counters: how
	// far the collective got before wedging.
	Machine protocol.WorkerStats `json:"machine"`
	// Worker is the counters of the worker's finished operations.
	Worker protocol.WorkerStats `json:"worker"`
	// Pump is the receive pump's routing decisions — a wedge upstream of
	// the machine (drops, bad packets) shows up here.
	Pump PumpStats `json:"pump"`
	// Metrics is the process-wide registry snapshot.
	Metrics obs.RegistrySnapshot `json:"metrics"`
	// Pools is the buffer-pool balance sheet (the leak audit's raw data:
	// a stuck packet shows as a get/put imbalance).
	Pools []obs.PoolBalance `json:"pools"`
	// Flight is the flight-recorder dump, when a recorder is installed.
	Flight *obs.FlightDump `json:"flight,omitempty"`
}

// capturePostmortem snapshots the observability surfaces for a stalled
// operation, whose machine counters are ms, and, when dir is non-empty,
// writes the bundle to <dir>/postmortem-w<id>-t<tid>.json.
func (w *Worker) capturePostmortem(tid uint32, ms protocol.WorkerStats, idle time.Duration) *StallError {
	pm := &Postmortem{
		CapturedAt: time.Now().Format(time.RFC3339Nano),
		WorkerID:   w.id,
		TensorID:   tid,
		IdleNs:     int64(idle),
		Machine:    ms,
		Worker:     w.Stats.Snapshot(),
		Pump:       w.pump.snapshot(),
		Metrics:    obs.Default.Snapshot(),
		Pools:      obs.PoolBalances(),
	}
	if fr := obs.ActiveFlightRecorder(); fr != nil {
		d := fr.Dump()
		pm.Flight = &d
	}
	serr := &StallError{WorkerID: w.id, TensorID: tid, Idle: idle, Bundle: pm}
	if w.cfg.PostmortemDir == "" {
		return serr
	}
	path := filepath.Join(w.cfg.PostmortemDir, fmt.Sprintf("postmortem-w%d-t%d.json", w.id, tid))
	enc, err := json.MarshalIndent(pm, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(enc, '\n'), 0o644)
	}
	if err == nil {
		serr.BundlePath = path
	}
	// A failed write never masks the stall itself; the bundle stays
	// available on the error.
	return serr
}
