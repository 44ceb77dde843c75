package migrate

import (
	"fmt"
	"sync"

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

// Extract pulls a Migrating thread's state off the source PE into im,
// refilling it in place: stack runs, heap arenas and globals reuse
// im's slices and page arenas. It unmaps the stack and heap pages
// locally; after Extract the thread owns no resources on src.
func Extract(t *converse.Thread, src *converse.PE, im *ThreadImage) error {
	if t.State() != converse.Migrating {
		return fmt.Errorf("migrate: Extract on %s thread %d", t.State(), t.ID())
	}
	if err := t.Strategy().Extract(src, t.Stack(), &im.Stack); err != nil {
		return fmt.Errorf("migrate: extracting stack of thread %d: %w", t.ID(), err)
	}
	if err := t.Heap().Snapshot(&im.Heap); err != nil {
		return fmt.Errorf("migrate: snapshotting heap of thread %d: %w", t.ID(), err)
	}
	if err := t.Heap().Detach(); err != nil {
		return fmt.Errorf("migrate: detaching heap of thread %d: %w", t.ID(), err)
	}
	im.ID, im.Prio, im.SP = uint64(t.ID()), int64(t.Priority()), uint64(t.SP())
	im.HasGlobals, im.GlobalVars = false, im.GlobalVars[:0]
	if g := t.Globals(); g != nil {
		im.HasGlobals = true
		for _, a := range g.Image() {
			im.GlobalVars = append(im.GlobalVars, uint64(a))
		}
	}
	return nil
}

// Install rebuilds the thread's state on the destination PE from an
// image, refilling the thread's own stack handle, heap and globals
// instance instead of replacing them; the image still decides every
// byte. im is only read, so its run data may be views of a wire
// buffer that outlives the call. layout is the job's swap-global
// module (may be nil when the image has no globals). The image must
// be of this thread's stack — same strategy and size — and every
// region it names is checked before anything is written.
func Install(t *converse.Thread, dst *converse.PE, im *ThreadImage, layout *swapglobal.Layout) error {
	strat, old := t.Strategy(), t.Stack()
	if im.ID != uint64(t.ID()) {
		return fmt.Errorf("migrate: image of thread %d installed on thread %d", im.ID, t.ID())
	}
	if im.Stack.Strategy != strat.Name() {
		return fmt.Errorf("migrate: thread %d has a %s stack, image holds a %q one", im.ID, strat.Name(), im.Stack.Strategy)
	}
	if old != nil && im.Stack.Size != old.Size() {
		return fmt.Errorf("migrate: thread %d has a %d-byte stack, image holds %d bytes", im.ID, old.Size(), im.Stack.Size)
	}
	stack, err := strat.Install(dst, &im.Stack, old)
	if err != nil {
		return fmt.Errorf("migrate: installing stack of thread %d: %w", im.ID, err)
	}
	heap := t.Heap()
	if err := heap.Restore(dst.Iso, dst.Space, &im.Heap); err != nil {
		return fmt.Errorf("migrate: restoring heap of thread %d: %w", im.ID, err)
	}
	var globals *swapglobal.Instance
	if im.HasGlobals {
		if layout == nil {
			return fmt.Errorf("migrate: thread %d has globals but no layout supplied", im.ID)
		}
		if globals = t.Globals(); globals == nil {
			globals = new(swapglobal.Instance)
		}
		if err := globals.Restore(layout, im.GlobalVars); err != nil {
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
	m := getMover()
	defer moverPool.Put(m)
	return m.move(t, src, dst, layout, false)
}

// mover is one migration batch's scratch: the thread image every move
// of the batch extracts into and decodes back into, and the packer
// that carries the wire bytes between them. Both are refilled by every
// move, so a move allocates nothing once they have grown to the
// batch's largest thread. A batch owns its mover (moverPool), so
// concurrent batches never share one.
//
// The aliasing rule: the decoded image's run data are views of the
// packer's buffer (pup.PUPer.ReadBack) and live only until Install
// returns. Install copies every byte into the thread's own memory, so
// nothing in a thread ever points into a mover.
type mover struct {
	im    ThreadImage
	p     *pup.PUPer
	order []int // BulkMigrate's op order
}

var moverPool = sync.Pool{New: func() any { return &mover{p: pup.NewGrowPacker()} }}

func getMover() *mover { return moverPool.Get().(*mover) }

// move runs one migration of a Migrating thread: extract into the
// scratch image, pack it, unpack the packed bytes in place over the
// same image, install, and transfer ownership. The PUP round trip
// stays byte-faithful to what would cross the network. suspended
// re-parks the thread on dst instead of making it runnable.
func (m *mover) move(t *converse.Thread, src, dst *converse.PE, layout *swapglobal.Layout, suspended bool) (int, error) {
	if err := Extract(t, src, &m.im); err != nil {
		return 0, err
	}
	m.p.Reset()
	if err := m.im.Pup(m.p); err != nil {
		return 0, err
	}
	n := len(m.p.PackedBytes())
	m.p.ReadBack()
	if err := m.im.Pup(m.p); err != nil {
		return 0, err
	}
	if err := Install(t, dst, &m.im, layout); err != nil {
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
