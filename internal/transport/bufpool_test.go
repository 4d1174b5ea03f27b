package transport

import "testing"

func TestBufClass(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, -1},
		{1, 0},
		{1 << 10, 0},
		{1<<10 + 1, 1},
		{1 << 11, 1},
		{MaxDatagram, 16 - minBufClassBits},
		{1 << maxBufClassBits, maxBufClassBits - minBufClassBits},
		{1<<maxBufClassBits + 1, -1},
		{1 << 20, -1},
	}
	for _, c := range cases {
		if got := bufClass(c.n); got != c.class {
			t.Errorf("bufClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutBufRoundTrip(t *testing.T) {
	for _, n := range []int{1, 100, 1 << 10, 1<<10 + 1, 4096, MaxDatagram} {
		b := GetBuf(n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d): len %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < 1<<minBufClassBits {
			t.Fatalf("GetBuf(%d): cap %d is not a pool class", n, c)
		}
		PutBuf(b)
		// A same-class request should be able to reuse it (sync.Pool gives
		// no hard guarantee, so don't assert identity — just that the
		// round-trip is safe and lengths come back right).
		b2 := GetBuf(n)
		if len(b2) != n {
			t.Fatalf("reuse GetBuf(%d): len %d", n, len(b2))
		}
		PutBuf(b2)
	}
}

func TestPutBufForeignBuffers(t *testing.T) {
	// Buffers not allocated by GetBuf must be silently dropped, never
	// pooled: odd capacities, tiny buffers, oversize buffers, nil.
	PutBuf(nil)
	PutBuf(make([]byte, 0))
	PutBuf(make([]byte, 100))   // cap 100: not a power of two
	PutBuf(make([]byte, 512))   // power of two but below min class
	PutBuf(make([]byte, 1<<20)) // power of two but above max class
	b := GetBuf(1 << 10)
	PutBuf(b[:10]) // shortened view of a pooled buffer is fine
	got := GetBuf(1 << 10)
	if len(got) != 1<<10 {
		t.Fatalf("after PutBuf of shortened view: len %d, want %d", len(got), 1<<10)
	}
}

func TestPoolCounters(t *testing.T) {
	before := PoolCounters().Snapshot()
	b := GetBuf(2048)
	PutBuf(b)
	GetBuf(2048)
	after := PoolCounters().Snapshot()
	dh := after["buf_pool_hits"] - before["buf_pool_hits"]
	dm := after["buf_pool_misses"] - before["buf_pool_misses"]
	if dh+dm != 2 {
		t.Fatalf("hits+misses delta = %d, want 2 (hits %d misses %d)", dh+dm, dh, dm)
	}
}
