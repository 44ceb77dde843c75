package converse_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/migrate"
	"migflow/internal/platform"
)

// readyThreads parks n runnable threads on pe's ready queue with
// priorities 0..n-1 (never run yet).
func readyThreads(t *testing.T, pe *converse.PE, n int) []*converse.Thread {
	t.Helper()
	ths := make([]*converse.Thread, n)
	for i := 0; i < n; i++ {
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy: migrate.Isomalloc{}, Priority: i,
		}, func(c *converse.Ctx) {})
		if err != nil {
			t.Fatal(err)
		}
		pe.Sched.Start(th)
		ths[i] = th
	}
	return ths
}

// TestTryStealHalf robs half of a four-deep ready queue: the stolen
// threads must be the back of the priority order (the work the victim
// would run last), left in Migrating state and out of the queue, and
// must run to completion once re-homed on the thief.
func TestTryStealHalf(t *testing.T) {
	pes := newPEs(t, 2, platform.Opteron(), nil)
	readyThreads(t, pes[0], 4)
	if got := pes[0].Sched.ReadyLenHint(); got != 4 {
		t.Fatalf("ReadyLenHint = %d, want 4", got)
	}
	stolen := pes[0].Sched.TryStealHalf(0)
	if len(stolen) != 2 {
		t.Fatalf("stole %d threads, want 2", len(stolen))
	}
	for _, th := range stolen {
		if th.State() != converse.Migrating {
			t.Errorf("stolen thread %d state = %s, want migrating", th.ID(), th.State())
		}
		if th.Priority() < 2 {
			t.Errorf("stole priority %d; want the low-priority tail (2,3)", th.Priority())
		}
	}
	if got := pes[0].Sched.ReadyLen(); got != 2 {
		t.Errorf("victim ready len = %d, want 2", got)
	}
	if got := pes[0].Sched.ReadyLenHint(); got != 2 {
		t.Errorf("victim ReadyLenHint = %d, want 2", got)
	}
	// Re-home through the ordinary migration pipeline and run them.
	for _, th := range stolen {
		if _, err := migrate.MigrateNow(th, pes[0], pes[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	pes[1].Sched.RunUntilIdle()
	for _, th := range stolen {
		if th.State() != converse.Exited {
			t.Errorf("stolen thread %d did not finish on thief: %s", th.ID(), th.State())
		}
	}
	pes[0].Sched.RunUntilIdle() // the two kept threads still run at home
}

// TestTryStealHalfDepthGuard: a queue of fewer than two threads is
// never robbed — stealing the victim's only runnable thread would
// just move the imbalance.
func TestTryStealHalfDepthGuard(t *testing.T) {
	pes := newPEs(t, 1, platform.Opteron(), nil)
	if got := pes[0].Sched.TryStealHalf(0); got != nil {
		t.Fatalf("stole %d from empty queue", len(got))
	}
	readyThreads(t, pes[0], 1)
	if got := pes[0].Sched.TryStealHalf(0); got != nil {
		t.Fatalf("stole %d from depth-1 queue", len(got))
	}
	pes[0].Sched.RunUntilIdle()
}

// TestTryStealHalfMax: the thief-side cap bounds the haul.
func TestTryStealHalfMax(t *testing.T) {
	pes := newPEs(t, 1, platform.Opteron(), nil)
	readyThreads(t, pes[0], 6)
	stolen := pes[0].Sched.TryStealHalf(1)
	if len(stolen) != 1 {
		t.Fatalf("stole %d with max 1", len(stolen))
	}
}

// TestStealDonateHook: the victim-side policy overrides the
// half-the-queue default, and a zero donation refuses the thief.
func TestStealDonateHook(t *testing.T) {
	pes := newPEs(t, 1, platform.Opteron(), nil)
	readyThreads(t, pes[0], 4)
	var sawDepth int
	pes[0].Sched.SetDonateHook(func(depth int) int {
		sawDepth = depth
		return 1
	})
	if stolen := pes[0].Sched.TryStealHalf(0); len(stolen) != 1 {
		t.Fatalf("stole %d with donate hook returning 1", len(stolen))
	}
	if sawDepth != 4 {
		t.Errorf("donate hook saw depth %d, want 4", sawDepth)
	}
	pes[0].Sched.SetDonateHook(func(depth int) int { return 0 })
	if stolen := pes[0].Sched.TryStealHalf(0); stolen != nil {
		t.Fatalf("stole %d with donate hook returning 0", len(stolen))
	}
	// An over-generous hook is clamped to the queue depth.
	pes[0].Sched.SetDonateHook(func(depth int) int { return 999 })
	if stolen := pes[0].Sched.TryStealHalf(0); len(stolen) != 3 {
		t.Fatalf("stole %d with donate hook returning 999, want the whole queue (3)", len(stolen))
	}
}

// orderedThreads starts n threads at one priority whose bodies append
// their index to *order when they run.
func orderedThreads(t *testing.T, pe *converse.PE, n int, order *[]int) []*converse.Thread {
	t.Helper()
	ths := make([]*converse.Thread, n)
	for i := 0; i < n; i++ {
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}},
			func(c *converse.Ctx) { *order = append(*order, i) })
		if err != nil {
			t.Fatal(err)
		}
		pe.Sched.Start(th)
		ths[i] = th
	}
	return ths
}

// TestEvictReadyMidLevel takes a Ready thread out of the middle of a
// priority level: its neighbours keep their FIFO order, and the
// evicted thread runs again once re-homed.
func TestEvictReadyMidLevel(t *testing.T) {
	pes := newPEs(t, 2, platform.Opteron(), nil)
	var order []int
	ths := orderedThreads(t, pes[0], 5, &order)
	wasSuspended, err := pes[0].Sched.Evict(ths[2])
	if err != nil || wasSuspended {
		t.Fatalf("Evict of a Ready thread = (%v, %v)", wasSuspended, err)
	}
	if _, err := pes[0].Sched.Evict(ths[2]); !errors.Is(err, converse.ErrNotEvictable) {
		t.Errorf("second Evict = %v, want ErrNotEvictable", err)
	}
	if got := pes[0].Sched.ReadyLen(); got != 4 {
		t.Errorf("ready len after evict = %d, want 4", got)
	}
	pes[0].Sched.RunUntilIdle()
	if fmt.Sprint(order) != "[0 1 3 4]" {
		t.Errorf("run order after mid-level evict = %v, want [0 1 3 4]", order)
	}
	if _, err := migrate.MigrateNow(ths[2], pes[0], pes[1], nil); err != nil {
		t.Fatal(err)
	}
	pes[1].Sched.RunUntilIdle()
	if fmt.Sprint(order) != "[0 1 3 4 2]" || ths[2].State() != converse.Exited {
		t.Errorf("evicted thread did not run on its new PE: order %v, state %s", order, ths[2].State())
	}
}

// TestTryStealHalfKeepsHead: within one priority level the thief gets
// the threads that arrived last — last to run first — and the victim
// keeps the head of its run order, in order.
func TestTryStealHalfKeepsHead(t *testing.T) {
	pes := newPEs(t, 1, platform.Opteron(), nil)
	var order []int
	ths := orderedThreads(t, pes[0], 6, &order)
	stolen := pes[0].Sched.TryStealHalf(0)
	if len(stolen) != 3 || stolen[0] != ths[5] || stolen[1] != ths[4] || stolen[2] != ths[3] {
		t.Fatalf("stole %d threads, want the last three arrivals, last first", len(stolen))
	}
	pes[0].Sched.RunUntilIdle()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("victim ran %v, want [0 1 2]", order)
	}
}

// TestStolenThreadResumesOnAnotherGoroutine bounces two threads
// between two PEs through TryStealHalf + MigrateNow (Adopt), every
// steal and every slice on a goroutine that has never run them
// before: a thread parked by one goroutine must resume, with its
// simulated stack intact, when a different goroutine switches to it.
func TestStolenThreadResumesOnAnotherGoroutine(t *testing.T) {
	pes := newPEs(t, 2, platform.Opteron(), nil)
	const trips = 40
	var fail atomic.Value
	ths := make([]*converse.Thread, 2)
	for i := range ths {
		th, err := pes[0].Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
			frame, err := c.PushFrame(8)
			if err != nil {
				fail.Store(err.Error())
				return
			}
			for k := uint64(0); k < 2*trips; k++ {
				_ = c.Space().WriteUint64(frame, k<<8|uint64(i))
				c.Suspend()
				if want := int(k+1) % 2; c.PE().Index != want {
					fail.Store(fmt.Sprintf("thread %d slice %d resumed on PE %d, want %d", i, k, c.PE().Index, want))
				}
				if v, err := c.Space().ReadUint64(frame); err != nil || v != k<<8|uint64(i) {
					fail.Store(fmt.Sprintf("thread %d slice %d: frame = %#x/%v after the hop", i, k, v, err))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		pes[0].Sched.Start(th)
		ths[i] = th
	}
	for _, pe := range pes {
		pe.Sched.SetDonateHook(func(depth int) int { return depth }) // rob the whole queue
	}
	onFreshGoroutine := func(fn func()) {
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		<-done
	}
	onFreshGoroutine(pes[0].Sched.RunUntilIdle) // both park in their first Suspend
	for hop := 0; hop < 2*trips; hop++ {
		victim, thief := pes[hop%2], pes[(hop+1)%2]
		for _, th := range ths {
			th.Awaken()
		}
		onFreshGoroutine(func() {
			stolen := victim.Sched.TryStealHalf(0)
			if len(stolen) != 2 {
				fail.Store(fmt.Sprintf("hop %d: stole %d threads, want 2", hop, len(stolen)))
			}
			for _, th := range stolen {
				if _, err := migrate.MigrateNow(th, victim, thief, nil); err != nil {
					fail.Store(err.Error())
				}
			}
		})
		onFreshGoroutine(thief.Sched.RunUntilIdle)
		if msg := fail.Load(); msg != nil {
			t.Fatalf("hop %d: %v", hop, msg)
		}
	}
	for _, th := range ths {
		if th.State() != converse.Exited {
			t.Errorf("thread %d is %s after %d round trips", th.ID(), th.State(), trips)
		}
	}
}
