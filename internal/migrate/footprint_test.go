//go:build !race

package migrate

import (
	"testing"

	"migflow/internal/converse"
	"migflow/internal/platform"
)

// TestLargeStackSwitchAllocations: switching a full 8 MiB stack in and
// out allocates a bounded handful of objects, not one per page. Stack
// copy maps the canonical region demand-zero and its switch-in copy
// faults the pages in a few extents, with frames from the pool; memory
// aliasing maps the thread's own frames into page-table entries held by
// value. An entry or a frame allocated per page costs 2,048 here.
// Objects, not bytes, and not under the race detector.
func TestLargeStackSwitchAllocations(t *testing.T) {
	const size = converse.MaxStackSize
	for _, strat := range []converse.StackStrategy{StackCopy{}, MemoryAlias{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			pe := newPE(t, 0, 1, platform.Opteron())
			ref, err := strat.New(pe, size)
			if err != nil {
				t.Fatal(err)
			}
			page := make([]byte, 8)
			cycle := func() {
				if err := strat.SwitchIn(pe, ref, size); err != nil {
					t.Fatal(err)
				}
				// The thread runs: a write at the bottom of its stack.
				if err := pe.Space.Write(ref.Base(), page); err != nil {
					t.Fatal(err)
				}
				if err := strat.SwitchOut(pe, ref, size); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // warm the frame pool and the page map
			allocs := testing.AllocsPerRun(10, cycle)
			t.Logf("%s: %.0f allocations per switch-in/out of an %d-byte stack", strat.Name(), allocs, size)
			if allocs > 64 {
				t.Errorf("%s: %.0f allocations per switch cycle of an %d-byte stack, want ≤ 64", strat.Name(), allocs, size)
			}
			if err := strat.Release(pe, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}
