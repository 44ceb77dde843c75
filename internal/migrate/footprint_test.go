//go:build !race

package migrate

import (
	"runtime"
	"runtime/debug"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/platform"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
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

// TestThreadMoveAllocations pins what moving a thread costs after
// warm-up: repeated BulkMigrate batches of parked isomalloc threads,
// each with two dirtied stack pages and two privatized globals (whose
// storage is a block of the thread's heap arena), allocate ≤ 0.1
// objects per moved thread — the batch's results slice and nothing per
// move. The "heap" row adds a dirtied 6 KiB heap block, so the arena
// ships page runs too. Extract fills the batch's scratch image, the
// packer unpacks its own bytes into it in place, and Install refills
// the thread's stack handle, heap and globals instead of replacing
// them. Measured on a 2-core host: 0.000 to 0.011 objects per move in
// both rows under -cpu 1,2,4, against 46.1 and 49.1 when every move
// built its images, handles, heap maps and TLB extents afresh. The
// collector is off so the scratch and frame pools keep what they hold.
func TestThreadMoveAllocations(t *testing.T) {
	for _, row := range []struct {
		name string
		heap uint64 // bytes of an extra dirtied heap block (0: none)
	}{{"stack+globals", 0}, {"heap", 6 << 10}} {
		t.Run(row.name, func(t *testing.T) {
			const pes, threads, rounds = 4, 64, 16
			layout := swapglobal.NewLayout()
			layout.Declare("a", 8)
			layout.Declare("b", 8)
			m := newMachine(t, pes, layout)
			ths := make([]*converse.Thread, threads)
			for i := range ths {
				th, err := m.pes[i%pes].Sched.CthCreate(converse.ThreadOptions{
					Strategy: Isomalloc{}, StackSize: 4 * vmem.PageSize, Globals: layout,
				}, func(c *converse.Ctx) {
					frame, err := c.PushFrame(2 * vmem.PageSize)
					if err == nil {
						err = c.Space().WriteUint64(frame, 1)
					}
					if err == nil {
						err = c.Space().WriteUint64(frame.Add(vmem.PageSize), 2)
					}
					if err == nil {
						err = c.GlobalsGOT().StoreUint64("a", 3)
					}
					if err == nil && row.heap > 0 {
						var blk vmem.Addr
						if blk, err = c.Malloc(row.heap); err == nil {
							err = c.Space().Write(blk, make([]byte, row.heap))
						}
					}
					if err != nil {
						t.Error(err)
						return
					}
					c.Suspend()
				})
				if err != nil {
					t.Fatal(err)
				}
				m.pes[i%pes].Sched.Start(th)
				ths[i] = th
			}
			m.runAll()
			ops := make([]Op, threads)
			batch := func(r int) {
				for i, th := range ths {
					src := th.Scheduler().PE()
					ops[i] = Op{T: th, Src: src, Dst: m.pes[(src.Index+1)%pes]}
				}
				for i, res := range BulkMigrate(ops, layout) {
					if res.Err != nil || !res.Suspended {
						t.Fatalf("round %d, thread %d: %+v", r, i, res)
					}
				}
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			batch(0) // warm the scratch, the frame pool and the page maps
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 1; r <= rounds; r++ {
				batch(r)
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs-rounds) / float64(rounds*threads)
			t.Logf("%.3f objects per moved thread beside each batch's results", per)
			if per > 0.1 {
				t.Errorf("a thread move allocates %.3f objects, want ≤ 0.1", per)
			}
		})
	}
}
