// Size-classed frame-buffer recycling for the wire paths. Both
// transports build every outgoing frame in (and read every incoming
// frame into) a buffer drawn from these free lists, so the steady
// state of a sharded run allocates nothing per frame: a buffer's
// lifetime is enqueue → writev (or read → dispatch) → putBuf, and the
// decode side copies payloads out (into the messages or a fresh
// arena), which is what makes the recycling safe.
//
// The lists are plain mutex-guarded stacks rather than sync.Pool:
// putting a []byte into a sync.Pool boxes the slice header (one
// allocation per recycle), which would defeat the zero-alloc goal the
// transport benchmarks assert. Each class keeps at most bufClassKeep
// buffers; beyond that a returned buffer is dropped for the GC, so an
// envelope burst cannot pin memory forever.
package comm

import (
	"math/bits"
	"sync"
)

const (
	bufMinShift = 6  // smallest class: 64 B
	bufMaxShift = 22 // largest class: 4 MiB; bigger requests bypass the pool
	// bufClassKeep caps retained buffers per class (4 MiB class worst
	// case: 64 × 4 MiB = 256 MiB, but classes only grow to what the
	// run actually used).
	bufClassKeep = 64
)

type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

var bufClasses [bufMaxShift + 1]bufClass

// getBuf returns a zero-length buffer with capacity ≥ n, recycled
// when a buffer of the right class is free. Callers append into it
// and hand it back with putBuf when the frame is off the wire.
func getBuf(n int) []byte {
	if n < 1 {
		n = 1
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2 n)
	if shift < bufMinShift {
		shift = bufMinShift
	}
	if shift > bufMaxShift {
		return make([]byte, 0, n) // oversized: unpooled
	}
	c := &bufClasses[shift]
	c.mu.Lock()
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		c.mu.Unlock()
		return b[:0]
	}
	c.mu.Unlock()
	return make([]byte, 0, 1<<shift)
}

// putBuf recycles a buffer obtained from getBuf. Buffers whose
// capacity is not an exact class size (oversized requests, or slices
// from elsewhere) are dropped silently.
func putBuf(b []byte) {
	n := cap(b)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	shift := bits.TrailingZeros(uint(n))
	if shift < bufMinShift || shift > bufMaxShift {
		return
	}
	c := &bufClasses[shift]
	c.mu.Lock()
	if len(c.free) < bufClassKeep {
		c.free = append(c.free, b[:0])
	}
	c.mu.Unlock()
}
