package converse

import (
	"fmt"
	"sync"
	"sync/atomic"

	"migflow/internal/mem"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// ID identifies a thread machine-wide (it doubles as the thread's
// comm.EntityID at higher layers).
type ID uint64

var nextThreadID atomic.Uint64

// Non-thread flows of control (event-mode AMPI ranks) used to draw
// comm identities from this process-global space; they now use
// comm.Network.AllocFlowIDs so identical machine construction yields
// identical entity bases in every process of a sharded run. Their IDs
// carry the PinnedEntity bit, which raw thread IDs never do, so the
// two spaces cannot collide in a location directory.

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	// Created: never run yet, not enqueued.
	Created State = iota
	// Ready: in a scheduler's ready queue.
	Ready
	// Running: currently switched in.
	Running
	// Suspended: parked waiting for an Awaken.
	Suspended
	// Migrating: extracted, in flight between PEs.
	Migrating
	// Exited: body returned.
	Exited
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Migrating:
		return "migrating"
	case Exited:
		return "exited"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// outcome is what a thread reports to the scheduler when it stops
// running (outExit: its body returned).
type outcome int

const (
	outYield outcome = iota
	outSuspend
	outMigrate
	outExit
)

// ThreadOptions configures CthCreate.
type ThreadOptions struct {
	// StackSize in bytes (rounded to pages); default 64 KiB.
	StackSize uint64
	// Strategy is the migratable-stack technique; required.
	Strategy StackStrategy
	// Priority orders the ready queue (lower runs first); default 0.
	Priority int
	// Globals, when non-nil with a PE that has a GOT, gives the
	// thread a privatized set of globals via swap-global.
	Globals *swapglobal.Layout
	// ArenaPages sizes thread-heap arenas (default
	// mem.DefaultArenaPages).
	ArenaPages uint64
}

// DefaultStackSize is used when ThreadOptions.StackSize is zero.
const DefaultStackSize uint64 = 64 << 10

// Thread is a migratable user-level thread (a Cth thread whose
// migratable state lives entirely in simulated memory).
type Thread struct {
	id   ID
	body func(*Ctx)
	prio int

	// Scheduling machinery. mu guards state, wakePending, sched.
	mu          sync.Mutex
	state       State
	wakePending bool
	sched       *Scheduler // current owner

	// co carries the thread's control flow; the scheduler resumes it
	// and the thread parks it again with the reason it stopped.
	co coroutine

	// Ready-queue links (see readyQueue), guarded by sched.mu.
	qnext, qprev *Thread
	queued       bool

	// Migratable state substrate.
	strategy  StackStrategy
	stack     StackRef
	sp        vmem.Addr // simulated stack pointer (grows down)
	heap      *mem.ThreadHeap
	globals   *swapglobal.Instance
	migrateTo int // valid while outcome outMigrate is in flight

	// cpuNs accumulates the virtual computation charged through
	// Ctx.Work — the measured load the balancers of §4.5 consume.
	// (Message waits and scheduler overhead are deliberately
	// excluded: the load database records work, not idleness.)
	// Guarded by mu.
	cpuNs float64

	ctx Ctx
}

// LoadSample returns the thread's current PE index and measured CPU
// time (virtual nanoseconds run since creation or the last
// ResetCPUTime) in one lock acquisition — the unit of the load
// balancer's measurement walk.
func (t *Thread) LoadSample() (pe int, cpuNs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sched.pe.Index, t.cpuNs
}

// ResetCPUTime zeroes the accumulated load (start of an LB epoch).
func (t *Thread) ResetCPUTime() {
	t.mu.Lock()
	t.cpuNs = 0
	t.mu.Unlock()
}

func (t *Thread) addCPU(ns float64) {
	t.mu.Lock()
	t.cpuNs += ns
	t.mu.Unlock()
}

// ID returns the thread's machine-wide id.
func (t *Thread) ID() ID { return t.id }

// Priority returns the scheduling priority.
func (t *Thread) Priority() int { return t.prio }

// State returns the current scheduling state.
func (t *Thread) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Scheduler returns the thread's current owning scheduler.
func (t *Thread) Scheduler() *Scheduler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sched
}

// Heap exposes the thread's migratable heap (for migration engines).
func (t *Thread) Heap() *mem.ThreadHeap { return t.heap }

// Globals exposes the thread's privatized globals, if any.
func (t *Thread) Globals() *swapglobal.Instance { return t.globals }

// Stack exposes the strategy stack handle (for migration engines).
func (t *Thread) Stack() StackRef { return t.stack }

// Strategy returns the thread's stack strategy.
func (t *Thread) Strategy() StackStrategy { return t.strategy }

// SP returns the simulated stack pointer.
func (t *Thread) SP() vmem.Addr { return t.sp }

// StackBytesUsed returns how much simulated stack is live — what
// stack copying must move per context switch (Figure 9's x-axis).
func (t *Thread) StackBytesUsed() uint64 {
	if t.stack == nil {
		return 0
	}
	top := t.stack.Base().Add(t.stack.Size())
	return uint64(top - t.sp)
}

// CostKind returns the platform cost-curve key for this thread:
// migratable threads pay the "ampi" curve (isomalloc + privatization
// overhead), matching the paper's Cth-vs-AMPI split in Figures 4-8.
func (t *Thread) CostKind() string { return "ampi" }

// Reinstall replaces the thread's migratable state after the
// migration engine has deserialized it on the destination PE: the
// new stack handle, the (unchanged, globally valid) stack pointer,
// the rebuilt heap, and the rebuilt globals instance. Only the
// migration engine may call this, and only while the thread is
// Migrating.
func (t *Thread) Reinstall(stack StackRef, sp vmem.Addr, heap *mem.ThreadHeap, globals *swapglobal.Instance) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Migrating {
		panic(fmt.Sprintf("converse: Reinstall on %s thread %d", t.state, t.id))
	}
	t.stack = stack
	t.sp = sp
	t.heap = heap
	t.globals = globals
}

// Awaken makes a Suspended thread Ready (called by message delivery,
// SDAG triggers, etc.). Waking a Running thread records a pending
// wake so the next Suspend returns immediately — the standard lost-
// wakeup guard.
func (t *Thread) Awaken() {
	t.mu.Lock()
	switch t.state {
	case Suspended:
		t.state = Ready
		s := t.sched
		t.mu.Unlock()
		s.enqueue(t)
		return
	case Running, Migrating:
		// Running: remember the wake for the next Suspend.
		// Migrating: remember it for arrival — an externally evicted
		// Suspended thread must not lose a wakeup that lands while it
		// is in flight.
		t.wakePending = true
	case Ready, Created, Exited:
		// Already runnable, not yet started, or gone — no-op.
	}
	t.mu.Unlock()
}

// main is the thread's coroutine body: it carries control flow only;
// all migratable state lives in simulated memory.
func (t *Thread) main() {
	t.body(&t.ctx)
	t.mu.Lock()
	t.state = Exited
	t.mu.Unlock()
}

// Ctx is the API surface a thread body sees. It is only valid while
// the thread is running; all state it manipulates lives in simulated
// memory, which is what makes the thread migratable.
type Ctx struct {
	t *Thread
}

// Thread returns the underlying thread.
func (c *Ctx) Thread() *Thread { return c.t }

// PE returns the PE the thread is currently running on.
func (c *Ctx) PE() *PE { return c.t.sched.pe }

// Space returns the current PE's simulated address space.
func (c *Ctx) Space() *vmem.Space { return c.t.sched.pe.Space }

// Yield gives up the processor, keeping the thread runnable
// (CthYield).
func (c *Ctx) Yield() { c.t.co.park(outYield) }

// Suspend parks the thread until Awaken (CthSuspend). If an Awaken
// raced in while running, Suspend returns immediately.
func (c *Ctx) Suspend() {
	t := c.t
	t.mu.Lock()
	if t.wakePending {
		t.wakePending = false
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.co.park(outSuspend)
}

// MigrateTo asks the runtime to move the thread to PE dest; the call
// returns on the destination PE. Migrating to the current PE is a
// no-op.
func (c *Ctx) MigrateTo(dest int) {
	t := c.t
	if dest == t.sched.pe.Index {
		return
	}
	t.migrateTo = dest
	t.co.park(outMigrate)
}

// Malloc allocates from the thread's migratable heap via the PE's
// malloc interposer (§3.4.2: in-thread malloc goes to isomalloc).
func (c *Ctx) Malloc(size uint64) (vmem.Addr, error) {
	return c.t.sched.pe.Inter.Malloc(size)
}

// PushFrame grows the simulated stack down by n bytes (16-byte
// aligned) and returns the new frame's base — the alloca() of this
// runtime. Overflow is a hard error, like running off a real stack.
func (c *Ctx) PushFrame(n uint64) (vmem.Addr, error) {
	t := c.t
	n = (n + 15) &^ 15
	if uint64(t.sp-t.stack.Base()) < n {
		return vmem.Nil, fmt.Errorf("converse: thread %d stack overflow: frame %d bytes, %d free",
			t.id, n, uint64(t.sp-t.stack.Base()))
	}
	t.sp -= vmem.Addr(n)
	return t.sp, nil
}

// GlobalsGOT returns the PE's GOT for global-variable access (nil if
// the job has no swap-global module).
func (c *Ctx) GlobalsGOT() *swapglobal.GOT { return c.t.sched.pe.GOT }

// Work charges ns nanoseconds of modeled computation to the PE's
// virtual clock and to this thread's measured CPU time — how
// application kernels like the BT-MZ solver express their work.
func (c *Ctx) Work(ns float64) {
	c.t.sched.pe.Clock.Advance(ns)
	c.t.addCPU(ns)
}
