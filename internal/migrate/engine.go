package migrate

import (
	"fmt"

	"migflow/internal/converse"
	"migflow/internal/mem"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// ThreadImage is the complete wire form of a migrating thread: the
// metadata the paper calls "user state" — stack pointer, stack pages,
// heap arenas with allocation metadata, privatized-global slot values
// — everything except kernel state, which (as in the paper, §3.1.3)
// is not migrated.
type ThreadImage struct {
	ID    uint64
	Prio  int64
	SP    uint64
	Stack converse.StackImage
	Heap  mem.ThreadHeapImage

	HasGlobals bool
	GlobalVars []uint64
}

// Pup implements pup.Pupable.
func (im *ThreadImage) Pup(p *pup.PUPer) error {
	if err := p.Uint64(&im.ID); err != nil {
		return err
	}
	if err := p.Int64(&im.Prio); err != nil {
		return err
	}
	if err := p.Uint64(&im.SP); err != nil {
		return err
	}
	if err := im.Stack.Pup(p); err != nil {
		return err
	}
	if err := im.Heap.Pup(p); err != nil {
		return err
	}
	if err := p.Bool(&im.HasGlobals); err != nil {
		return err
	}
	return p.Uint64s(&im.GlobalVars)
}

// Extract pulls a Migrating thread's state off the source PE:
// serializes stack and heap, unmaps their pages locally. After
// Extract the thread owns no resources on src.
func Extract(t *converse.Thread, src *converse.PE) (*ThreadImage, error) {
	if t.State() != converse.Migrating {
		return nil, fmt.Errorf("migrate: Extract on %s thread %d", t.State(), t.ID())
	}
	stackIm, err := t.Strategy().Extract(src, t.Stack())
	if err != nil {
		return nil, fmt.Errorf("migrate: extracting stack of thread %d: %w", t.ID(), err)
	}
	heapIm, err := t.Heap().Snapshot()
	if err != nil {
		return nil, fmt.Errorf("migrate: snapshotting heap of thread %d: %w", t.ID(), err)
	}
	if err := t.Heap().Detach(); err != nil {
		return nil, fmt.Errorf("migrate: detaching heap of thread %d: %w", t.ID(), err)
	}
	im := &ThreadImage{
		ID:    uint64(t.ID()),
		Prio:  int64(t.Priority()),
		SP:    uint64(t.SP()),
		Stack: *stackIm,
		Heap:  *heapIm,
	}
	if g := t.Globals(); g != nil {
		im.HasGlobals = true
		for _, a := range g.Image() {
			im.GlobalVars = append(im.GlobalVars, uint64(a))
		}
	}
	return im, nil
}

// Install rebuilds the thread's state on the destination PE from an
// image and hands the state back to the thread. layout is the job's
// swap-global module (may be nil when the image has no globals).
func Install(t *converse.Thread, dst *converse.PE, im *ThreadImage, layout *swapglobal.Layout) error {
	strat, err := ByName(im.Stack.Strategy)
	if err != nil {
		return err
	}
	stack, err := strat.Install(dst, &im.Stack)
	if err != nil {
		return fmt.Errorf("migrate: installing stack of thread %d: %w", im.ID, err)
	}
	heap, err := mem.RestoreThreadHeap(dst.Iso, dst.Space, &im.Heap)
	if err != nil {
		return fmt.Errorf("migrate: restoring heap of thread %d: %w", im.ID, err)
	}
	var globals *swapglobal.Instance
	if im.HasGlobals {
		if layout == nil {
			return fmt.Errorf("migrate: thread %d has globals but no layout supplied", im.ID)
		}
		vars := make([]vmem.Addr, len(im.GlobalVars))
		for i, a := range im.GlobalVars {
			vars[i] = vmem.Addr(a)
		}
		globals, err = swapglobal.RestoreInstance(layout, vars)
		if err != nil {
			return err
		}
	}
	t.Reinstall(stack, vmem.Addr(im.SP), heap, globals)
	return nil
}

// MigrateNow performs one complete synchronous migration: extract on
// src, PUP round trip (the bytes that would cross the network),
// install on dst, and scheduler ownership transfer. It returns the
// serialized size so callers can charge network costs.
func MigrateNow(t *converse.Thread, src, dst *converse.PE, layout *swapglobal.Layout) (int, error) {
	return moveThread(t, src, dst, layout, false)
}

// moveThread runs one migration of a Migrating thread: extract, PUP
// round trip, install, and ownership transfer. suspended re-parks the
// thread on dst instead of making it runnable.
func moveThread(t *converse.Thread, src, dst *converse.PE, layout *swapglobal.Layout, suspended bool) (int, error) {
	im, err := Extract(t, src)
	if err != nil {
		return 0, err
	}
	// Single-pass pack into a pooled buffer, unpacked in place: the
	// PUP round trip is still byte-faithful to what would cross the
	// network, but steady-state migration allocates no wire buffers
	// (unpacking copies every field out, so im2 does not alias the
	// pooled bytes).
	p := pup.AcquirePacker()
	defer p.Release()
	if err := im.Pup(p); err != nil {
		return 0, err
	}
	n := len(p.PackedBytes())
	var im2 ThreadImage
	if err := pup.Unpack(p.PackedBytes(), &im2); err != nil {
		return 0, err
	}
	if err := Install(t, dst, &im2, layout); err != nil {
		return 0, err
	}
	src.Sched.Disown(t)
	if suspended {
		dst.Sched.AdoptSuspended(t)
	} else {
		dst.Sched.Adopt(t)
	}
	return n, nil
}
