package comm

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestMessageSlab pins the pool's refill: a miss carves from a slab of
// msgSlab messages, so 6,400 messages taken and kept cost at most one
// allocation per slab (fewer when the pool still holds freed ones),
// plus a few for a partly used slab and the pool's own bookkeeping, and
// a slab stays within the 8 KiB a kept inline payload may pin. Every
// carved message is zeroed and distinct.
func TestMessageSlab(t *testing.T) {
	if size := unsafe.Sizeof(Message{}) * msgSlab; size > 8<<10 {
		t.Errorf("a slab is %d bytes, want ≤ 8 KiB", size)
	}
	const n = 100 * msgSlab
	msgs := make([]*Message, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range msgs {
		msgs[i] = NewMessage()
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.Mallocs-before.Mallocs, uint64(n/msgSlab+8); got > bound {
		t.Errorf("%d messages cost %d allocations, want ≤ %d", n, got, bound)
	}
	seen := make(map[*Message]bool, n)
	for _, m := range msgs {
		if seen[m] || m.To != 0 || m.Data != nil || m.Seq != 0 {
			t.Fatalf("message %p handed out twice or not zeroed: %+v", m, *m)
		}
		seen[m] = true
	}
	for _, m := range msgs {
		m.Free()
	}
}
