//go:build !race

package ampi

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"migflow/internal/vmem"
)

// TestULTRankFootprint: a ULT rank's isomalloc stack is address space
// claimed in principle, never physical memory until touched (§3.4.2).
// Building 4,096 ranks with 64 KiB stacks gives no page a frame, and
// grows the live heap by at most 8 KiB per rank — thread, record and
// page-table entries. A stack mapped with its frames costs 17 of them,
// about 70 KiB, per rank. Bytes, not time, and not under the race
// detector.
func TestULTRankFootprint(t *testing.T) {
	const ranks, stack = 4096, 64 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, job, err := NewJacobi(JacobiConfig{
		Mode: ModeULT, Ranks: ranks, Iters: 2, PEs: 4, StackSize: stack, BlockPlacement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRank := float64(after.HeapAlloc-before.HeapAlloc) / ranks
	frames := 0
	for i := 0; i < m.NumPEs(); i++ {
		frames += m.PE(i).Space.ResidentPages()
	}
	t.Logf("%d ranks with %d KiB stacks: %.0f B of live heap per rank, %d frames", ranks, stack>>10, perRank, frames)
	if frames != 0 {
		t.Errorf("%d frames before the job ran, want 0: mapping a stack must not give it frames", frames)
	}
	if perRank > 8<<10 {
		t.Errorf("%.0f B of live heap per rank before the job ran, want ≤ %d", perRank, 8<<10)
	}
	job.Run()
	if !job.Done() {
		t.Fatal("job did not complete")
	}
}

// TestUseStackTouchesItsPages: a rank that holds n bytes of live stack
// gives exactly the ⌈n/4096⌉ pages holding them a frame, and no other
// page of its stack. The sizes are ones where UseStack's one dirtied
// word per page lands in every page the frame spans.
func TestUseStackTouchesItsPages(t *testing.T) {
	for _, n := range []uint64{8, vmem.PageSize, 5000, 3*vmem.PageSize + 8, 16 << 10} {
		m := newMachine(t, 1, nil)
		got := -1
		job, err := NewProgram(m, 1, Options{Mode: ModeULT, StackSize: 64 << 10}, Do(func(pc *PC) {
			space := ultBE{}.thread(pc).ctx.Space()
			before := space.ResidentPages()
			pc.UseStack(n)
			got = space.ResidentPages() - before
		}))
		if err != nil {
			t.Fatal(err)
		}
		job.Run()
		if want := int((n + vmem.PageSize - 1) / vmem.PageSize); got != want {
			t.Errorf("UseStack(%d) gave %d pages frames, want %d", n, got, want)
		}
	}
}

// TestEventRankFootprint: an event rank costs its slot and its two
// 4-byte owner words — the engine's and the comm range table's — and
// nothing else until it runs. Building 65,536 event Jacobi ranks grows
// the live heap by at most unsafe.Sizeof(slot{}) + 8 bytes per
// rank more than building 1,024 does: the difference leaves out what a
// job costs once (its program tree, site numbering, per-PE tables). The
// windows may also catch a few hundred bytes the runtime allocates for
// itself, so 1 KiB in all is allowed for that; one more word per rank
// would be 504 KiB. A window now and then catches a larger runtime
// allocation (5,504 B has been seen), so each size's growth is the
// least of three fresh builds, all kept live: a build cannot cost less
// than its ranks do, and the runtime does not strike all three.
func TestEventRankFootprint(t *testing.T) {
	const small, large, runtimeSlack, builds = 1 << 10, 1 << 16, 1 << 10, 3
	m := newMachine(t, 4, nil)
	// Two collections: the second empties the message pool's victim
	// cache, which would otherwise drain in the middle of a window.
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	var jobs []*Job // kept live across every window
	growth := func(ranks int) float64 {
		least := math.Inf(1)
		for i := 0; i < builds; i++ {
			before := liveHeap()
			job, err := NewJacobiOn(m, JacobiConfig{Mode: ModeEvent, Ranks: ranks, Iters: 2, PEs: 4, BlockPlacement: true})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
			least = min(least, liveHeap()-before)
		}
		return least
	}
	gSmall, gLarge := growth(small), growth(large)
	perRank := (gLarge - gSmall - runtimeSlack) / (large - small)
	bound := float64(unsafe.Sizeof(slot{}) + 8)
	t.Logf("event ranks: %.0f B for %d, %.0f B for %d: %.2f B of live heap per rank (bound %.0f)",
		gSmall, small, gLarge, large, perRank, bound)
	if perRank > bound {
		t.Errorf("%.2f B of live heap per event rank before the job ran, want ≤ %.0f", perRank, bound)
	}
	runtime.KeepAlive(jobs)
}
