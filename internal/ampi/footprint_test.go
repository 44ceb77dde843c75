//go:build !race

package ampi

import (
	"runtime"
	"testing"

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
			space := pc.be.(ultBE).r.ctx.Space()
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
