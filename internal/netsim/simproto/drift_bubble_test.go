//go:build goexperiment.synctest

package simproto_test

import (
	"sync"
	"testing"
	"testing/synctest"
)

// TestSubstrateEquivalenceBubble runs the drift grid with the live cluster
// inside a synctest bubble: the drivers' timers run in virtual time, as
// the simulator's do, so every row, random loss included, is held to
// every counter. Build with GOEXPERIMENT=synctest (make drift, make race).
func TestSubstrateEquivalenceBubble(t *testing.T) {
	substrateGrid(t, func(f func()) {
		// The race detector does not order synctest.Run's return after
		// the bubble's writes; the mutex carries f's results out.
		var mu sync.Mutex
		synctest.Run(func() {
			mu.Lock()
			defer mu.Unlock()
			f()
		})
		mu.Lock()
		mu.Unlock()
	}, true)
}
