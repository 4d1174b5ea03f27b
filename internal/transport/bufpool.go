package transport

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
)

// Size-classed receive-buffer pool. Every transport allocates one buffer
// per inbound message (a UDP datagram, a TCP frame, a channel-fabric
// copy); without reuse that is the dominant steady-state allocation of
// the whole datapath — the paper's DPDK/RDMA implementation preallocates
// and recycles its packet buffers for exactly this reason (§5).
//
// Buffers are handed to consumers inside Message.Data, which the Conn
// contract says the consumer owns. Release is therefore cooperative:
// consumers that are done with a message call PutBuf to recycle it;
// consumers that don't bother simply leave the buffer to the garbage
// collector. Nothing breaks either way — pooling only changes whether the
// next GetBuf hits the pool or the allocator.
//
// Balance accounting: GetBuf and PutBuf additionally keep cumulative
// get/put tallies (PoolBalance), registered with the internal/obs
// pool-leak audit. In a quiesced system — every connection closed, every
// operation finished — gets must equal puts; a standing imbalance means
// some consumer dropped a buffer on the floor (per-packet allocation is
// back) and is exactly the class of receive-path leak the audit exists to
// catch. The tallies assume PutBuf is only called with buffers that came
// from GetBuf, which is the package-wide convention.

// minBufClass/maxBufClass bound the pooled capacity classes (powers of
// two). Smaller buffers are cheaper to allocate than to pool; larger ones
// (oversize TCP frames) are rare enough to leave to the allocator.
const (
	minBufClassBits = 10 // 1 KiB
	maxBufClassBits = 17 // 128 KiB: TCP frames of the widest packet; MaxDatagram takes the 64 KiB class
	numBufClasses   = maxBufClassBits - minBufClassBits + 1
)

// The class pools store *[]byte rather than []byte: boxing a slice into
// an interface{} copies its three-word header to the heap, which would
// make every PutBuf allocate — the exact per-packet churn the pool
// exists to remove. The header objects themselves recycle through
// bufHdrPool, so a warmed Get/Put cycle allocates nothing.
var (
	bufPools   [numBufClasses]sync.Pool
	bufHdrPool = sync.Pool{New: func() any { return new([]byte) }}
)

var (
	bufPoolHits   atomic.Int64
	bufPoolMisses atomic.Int64
	bufPoolGets   atomic.Int64
	bufPoolPuts   atomic.Int64
)

func init() {
	obs.RegisterPool("transport_buf", PoolBalance)
}

// bufClass returns the pool index whose capacity (1<<(minBufClassBits+i))
// holds n bytes, or -1 when n is outside the pooled range.
func bufClass(n int) int {
	if n <= 0 || n > 1<<maxBufClassBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n); n==1 -> 0
	if b < minBufClassBits {
		b = minBufClassBits
	}
	return b - minBufClassBits
}

// GetBuf returns a buffer with len n, recycled when a pooled buffer of a
// suitable class is available. The caller owns the buffer until it passes
// it on (e.g. inside a Message) or returns it with PutBuf.
func GetBuf(n int) []byte {
	bufPoolGets.Add(1)
	obs.Emit(obs.EvPoolGet, 0, int64(n))
	c := bufClass(n)
	if c < 0 {
		bufPoolMisses.Add(1)
		return make([]byte, n)
	}
	if v := bufPools[c].Get(); v != nil {
		bufPoolHits.Add(1)
		h := v.(*[]byte)
		b := *h
		*h = nil
		bufHdrPool.Put(h)
		return b[:n]
	}
	bufPoolMisses.Add(1)
	return make([]byte, n, 1<<(minBufClassBits+c))
}

// PutBuf recycles a buffer previously obtained from GetBuf (directly or
// via a received Message). Buffers whose capacity is not an exact pool
// class — anything not allocated by GetBuf — are silently dropped to the
// garbage collector, so releasing a foreign buffer is always safe. The
// caller must not touch the buffer afterwards.
func PutBuf(b []byte) {
	if b == nil {
		return // releasing no buffer is a no-op, not a balance event
	}
	bufPoolPuts.Add(1)
	obs.Emit(obs.EvPoolPut, 0, int64(len(b)))
	c := cap(b)
	if c == 0 {
		return
	}
	i := bits.TrailingZeros(uint(c))
	if 1<<i != c || i < minBufClassBits || i > maxBufClassBits {
		return // not one of ours
	}
	h := bufHdrPool.Get().(*[]byte)
	*h = b[:c]
	bufPools[i-minBufClassBits].Put(h)
}

// PoolBalance reports the cumulative GetBuf and PutBuf counts. In a
// quiesced system gets == puts; the difference is the number of buffers
// currently owned by consumers (or leaked).
func PoolBalance() (gets, puts int64) {
	return bufPoolGets.Load(), bufPoolPuts.Load()
}

// PoolCounters exports the buffer pool's tallies as metrics counters.
// The steady-state health checks are a hit rate approaching 1 (misses
// after warm-up mean per-packet allocation is back) and gets - puts
// approaching the number of messages legitimately in flight (a standing
// surplus is a leak).
func PoolCounters() *metrics.Counters {
	c := metrics.NewCounters()
	c.Add("buf_pool_hits", bufPoolHits.Load())
	c.Add("buf_pool_misses", bufPoolMisses.Load())
	c.Add("buf_pool_gets", bufPoolGets.Load())
	c.Add("buf_pool_puts", bufPoolPuts.Load())
	return c
}
