//go:build !race

package comm

import (
	"runtime"
	"testing"
)

// allocatedBy returns the heap bytes f allocates (garbage included).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLocationWritesAllocateLinearly is the regression guard for the
// location tables, in deterministic bytes rather than time: N first
// contacts from one endpoint, N Registers into one network, N
// MigrateEntitys and N Deregisters each allocate at most 64 B × N. A
// structure that copies itself per write allocates about N²·10 B here
// (hundreds of MiB). Not run under the race detector, whose shadow
// allocations the bound knows nothing about.
func TestLocationWritesAllocateLinearly(t *testing.T) {
	const n = 4096
	const bound = 64 * n
	net := NewNetwork(2, LatencyModel{})
	check := func(what string, f func()) {
		t.Helper()
		got := allocatedBy(f)
		t.Logf("%d %s allocated %d B", n, what, got)
		if got > bound {
			t.Errorf("%d %s allocated %d B (%.0f B each), want ≤ %d B (64 B each)", n, what, got, float64(got)/n, bound)
		}
	}
	check("Registers", func() {
		for id := EntityID(1); id <= n; id++ {
			if err := net.Register(id, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	src, dst, msg := net.Endpoint(0), net.Endpoint(1), &Message{}
	check("first contacts", func() {
		for id := EntityID(1); id <= n; id++ {
			*msg = Message{To: id}
			if err := src.Send(msg); err != nil {
				t.Fatal(err)
			}
			dst.Poll()
		}
	})
	if got := src.cache.len(); got != n {
		t.Fatalf("sender cached %d locations, want %d", got, n)
	}
	check("MigrateEntitys", func() {
		for id := EntityID(1); id <= n; id++ {
			if err := net.MigrateEntity(id, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	check("stale-cache corrections", func() {
		for id := EntityID(1); id <= n; id++ {
			*msg = Message{To: id}
			if err := src.Send(msg); err != nil {
				t.Fatal(err)
			}
			if src.Poll(); msg.Hops != 2 {
				t.Fatalf("send to migrated entity %d took %d hops, want 2", id, msg.Hops)
			}
		}
	})
	check("Deregisters", func() {
		for id := EntityID(1); id <= n; id++ {
			net.Deregister(id)
		}
	})
	if got := net.NumEntities(); got != 0 {
		t.Errorf("%d entities left after deregistering all", got)
	}
}
