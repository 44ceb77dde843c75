package converse

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"migflow/internal/mem"
	"migflow/internal/swapglobal"
	"migflow/internal/trace"
	"migflow/internal/vmem"
)

// ErrNotEvictable is wrapped by Evict when a thread cannot be taken
// from its scheduler right now: it is Running, already Migrating,
// Exited, owned by a different scheduler, or was dequeued in the
// window between a caller's snapshot and the eviction attempt. A bulk
// migration or work-stealing pass treats it as "skip this thread",
// not as a failure.
var ErrNotEvictable = errors.New("thread not evictable")

// Scheduler is one PE's user-level thread scheduler: a priority ready
// queue plus the context-switch path (strategy switch-in/out, GOT
// swap, malloc-interposer enter/exit, virtual cost charging). Exactly
// one thread runs at a time per scheduler — a processor executes one
// flow of control at a time.
type Scheduler struct {
	pe *PE

	mu      sync.Mutex
	cond    *sync.Cond
	ready   readyQueue
	live    int // threads created and not yet exited/migrated away
	threads map[ID]*Thread
	stop    bool

	// readyDepth mirrors ready.n so a work-stealing thief can peek
	// at queue depth without contending for mu; refreshed under mu on
	// every queue mutation.
	readyDepth atomic.Int64

	// busyNs accumulates the virtual nanoseconds of Work charged on
	// this PE (not synced by migrations, unlike the PE clock) — the
	// modeled-load signal a work-stealing thief compares against its
	// own before robbing this scheduler.
	busyNs atomic.Uint64

	// donate, when set, decides how many threads this scheduler gives
	// a thief for a given queue depth (default: half).
	donate func(depth int) int

	switches uint64 // context switches performed (stats)

	// onMigrate is invoked (without locks) when a running thread
	// requests migration; wired by the machine layer.
	onMigrate func(t *Thread, dest int)

	// onIdle, when set, is invoked (without locks) each time the
	// ready queue empties during Run; return false to stop the loop.
	onIdle func() bool

	// onWake, when set, is invoked (without locks) each time a thread
	// becomes runnable here; the machine layer uses it to wake an idle
	// PE blocked outside the scheduler's own condvar.
	onWake func()
}

func newScheduler(pe *PE) *Scheduler {
	s := &Scheduler{pe: pe, threads: make(map[ID]*Thread)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Threads returns a snapshot of the threads this scheduler owns
// (created here or adopted, not yet exited or migrated away).
func (s *Scheduler) Threads() []*Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Thread, 0, len(s.threads))
	for _, t := range s.threads {
		out = append(out, t)
	}
	return out
}

// PE returns the owning PE.
func (s *Scheduler) PE() *PE { return s.pe }

// Switches returns the number of context switches performed.
func (s *Scheduler) Switches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.switches
}

// Live returns the number of threads owned by this scheduler.
func (s *Scheduler) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// ReadyLen returns the ready-queue depth.
func (s *Scheduler) ReadyLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready.n
}

// SetMigrateHandler wires the machine-level migration engine.
func (s *Scheduler) SetMigrateHandler(fn func(t *Thread, dest int)) {
	s.mu.Lock()
	s.onMigrate = fn
	s.mu.Unlock()
}

// SetIdleHandler wires a callback run when the ready queue drains;
// returning false stops Run. The machine layer uses it to poll the
// network.
func (s *Scheduler) SetIdleHandler(fn func() bool) {
	s.mu.Lock()
	s.onIdle = fn
	s.mu.Unlock()
}

// SetWakeHook wires a callback fired whenever a thread is enqueued on
// this scheduler (e.g. an Awaken from another PE). It runs without
// scheduler locks held and must be cheap and thread-safe.
func (s *Scheduler) SetWakeHook(fn func()) {
	s.mu.Lock()
	s.onWake = fn
	s.mu.Unlock()
}

// CthCreate creates a migratable user-level thread on this PE running
// body, charging the platform's thread-creation cost and enforcing
// its practical user-thread limit (Table 2).
func (s *Scheduler) CthCreate(opts ThreadOptions, body func(*Ctx)) (*Thread, error) {
	if body == nil {
		return nil, fmt.Errorf("converse: CthCreate: nil body")
	}
	if opts.Strategy == nil {
		return nil, fmt.Errorf("converse: CthCreate: nil stack strategy")
	}
	size := opts.StackSize
	if size == 0 {
		size = DefaultStackSize
	}
	size = vmem.RoundUpPages(size)
	if size > MaxStackSize {
		return nil, fmt.Errorf("converse: CthCreate: stack %d exceeds maximum %d", size, MaxStackSize)
	}
	s.mu.Lock()
	if lim := s.pe.Prof.MaxUserThreads; lim.Bounded() && s.live >= lim.N {
		s.mu.Unlock()
		return nil, fmt.Errorf("converse: PE %d at the platform's user-thread limit (%d)", s.pe.Index, lim.N)
	}
	s.live++
	s.mu.Unlock()

	stack, err := opts.Strategy.New(s.pe, size)
	if err != nil {
		s.decLive()
		return nil, err
	}
	t := &Thread{
		id:       ID(nextThreadID.Add(1)),
		body:     body,
		prio:     opts.Priority,
		state:    Created,
		sched:    s,
		strategy: opts.Strategy,
		stack:    stack,
		sp:       stack.Base().Add(size), // empty stack: sp at the top
		heap:     mem.NewThreadHeap(s.pe.Iso, s.pe.Space, opts.ArenaPages),
	}
	t.ctx = Ctx{t: t}
	if opts.Globals != nil {
		if s.pe.GOT == nil {
			opts.Strategy.Release(s.pe, stack)
			s.decLive()
			return nil, fmt.Errorf("converse: thread wants privatized globals but PE %d has no GOT", s.pe.Index)
		}
		inst, err := swapglobal.NewInstance(opts.Globals, t.heap)
		if err != nil {
			opts.Strategy.Release(s.pe, stack)
			s.decLive()
			return nil, err
		}
		t.globals = inst
	}
	s.pe.Clock.Advance(s.pe.Prof.UThreadCreate)
	s.mu.Lock()
	s.threads[t.id] = t
	s.mu.Unlock()
	s.trace(trace.EvCreate, t, uint64(size))
	t.co.start(t.main)
	return t, nil
}

func (s *Scheduler) decLive() {
	s.mu.Lock()
	s.live--
	s.mu.Unlock()
}

// Start enqueues a Created thread.
func (s *Scheduler) Start(t *Thread) {
	t.mu.Lock()
	if t.state != Created {
		t.mu.Unlock()
		panic(fmt.Sprintf("converse: Start on %s thread %d", t.state, t.id))
	}
	t.state = Ready
	t.mu.Unlock()
	s.enqueue(t)
}

// enqueue adds a Ready thread to the priority queue.
func (s *Scheduler) enqueue(t *Thread) {
	s.mu.Lock()
	s.ready.push(t)
	s.readyDepth.Store(int64(s.ready.n))
	s.cond.Broadcast()
	wake := s.onWake
	s.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// popLocked removes the next thread in run order and counts the
// context switch it is about to get, returning it with the queue depth
// its switch-in is charged for (itself included). Caller holds s.mu
// and has checked the queue is non-empty.
func (s *Scheduler) popLocked() (t *Thread, depth int) {
	depth = s.ready.n
	t = s.ready.pop()
	s.readyDepth.Store(int64(s.ready.n))
	s.switches++
	return t, depth
}

// Evict prepares a non-running thread for external (forced)
// migration: a Ready thread is removed from the queue, a Suspended
// thread is left parked; either way the thread ends in the Migrating
// state with all state quiescent in simulated memory. wasSuspended
// tells the destination whether to re-enqueue (Ready) or re-park
// (Suspended) on arrival. Running or Exited threads cannot be
// evicted.
func (s *Scheduler) Evict(t *Thread) (wasSuspended bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sched != s {
		// The thread moved (stolen, or migrated by a concurrent bulk
		// batch) between the caller's snapshot and now; evicting it
		// from here would extract state from the wrong address space.
		return false, fmt.Errorf("converse: Evict: thread %d is owned by PE %d, not PE %d: %w",
			t.id, t.sched.pe.Index, s.pe.Index, ErrNotEvictable)
	}
	switch t.state {
	case Ready:
		if !s.removeReady(t) {
			// Popped by the scheduler loop in the snapshot window: it
			// is about to run.
			return false, fmt.Errorf("converse: Evict: thread %d claims Ready but is not queued on PE %d: %w",
				t.id, s.pe.Index, ErrNotEvictable)
		}
		t.state = Migrating
		return false, nil
	case Suspended:
		t.state = Migrating
		return true, nil
	}
	return false, fmt.Errorf("converse: Evict: thread %d is %s; only Ready or Suspended threads can be evicted: %w",
		t.id, t.state, ErrNotEvictable)
}

// removeReady unlinks t from the ready queue, reporting whether it
// was queued here.
func (s *Scheduler) removeReady(t *Thread) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := s.ready.remove(t)
	s.readyDepth.Store(int64(s.ready.n))
	return removed
}

// ReadyLenHint returns the ready-queue depth without taking the
// scheduler lock. It may be momentarily stale — exactly what a
// work-stealing thief wants for victim selection: a cheap peek that
// costs the victim nothing.
func (s *Scheduler) ReadyLenHint() int { return int(s.readyDepth.Load()) }

// BusyNs returns the virtual nanoseconds of thread Work charged on
// this PE so far, lock-free. Unlike the PE clock it is never synced
// forward by migration arrivals, so it stays a pure measure of how
// much modeled computation this PE has executed — the steal policy
// compares thief and victim BusyNs to send work from modeled-busy
// PEs to modeled-idle ones.
func (s *Scheduler) BusyNs() uint64 { return s.busyNs.Load() }

// chargeBusy accounts Work time for BusyNs (called from Ctx.Work on
// the running thread's scheduler).
func (s *Scheduler) chargeBusy(ns float64) { s.busyNs.Add(uint64(ns)) }

// SetDonateHook installs the victim-side donation policy: given the
// ready-queue depth at steal time, return how many threads this
// scheduler is willing to give a thief. nil (the default) donates
// half. The hook runs with the scheduler lock held and must not call
// back into the scheduler.
func (s *Scheduler) SetDonateHook(fn func(depth int) int) {
	s.mu.Lock()
	s.donate = fn
	s.mu.Unlock()
}

// TryStealHalf takes up to max ready threads from this scheduler (max
// <= 0 caps at half the queue) and returns them in the Migrating
// state, ready for the caller to re-home through the normal migration
// path — PUP, location directory, and clock charging all behave as in
// any other migration. The victim keeps the head of its priority
// order; thieves get the work that would have run last.
//
// The scheduler lock is taken only when the lock-free depth peek says
// there are at least two queued threads — an idle machine's failed
// probes never contend with a busy victim. Candidates that run,
// suspend, or migrate between the snapshot and the eviction are
// skipped, so the returned set may be smaller than requested (possibly
// empty).
func (s *Scheduler) TryStealHalf(max int) []*Thread {
	if s.readyDepth.Load() < 2 {
		return nil
	}
	s.mu.Lock()
	depth := s.ready.n
	want := depth / 2
	if s.donate != nil {
		want = s.donate(depth)
	}
	if want > depth {
		want = depth
	}
	if max > 0 && want > max {
		want = max
	}
	if want <= 0 || depth < 2 {
		s.mu.Unlock()
		return nil
	}
	// Snapshot the tail of the run order, last to run first, so the
	// victim's next-to-run threads stay put.
	victims := s.ready.tail(want)
	s.mu.Unlock()

	// Evict outside s.mu: Evict takes t.mu then s.mu (the established
	// lock order), so holding s.mu here would invert it against a
	// concurrent Evict from a bulk migration.
	out := victims[:0]
	for _, t := range victims {
		wasSuspended, err := s.Evict(t)
		if err != nil {
			continue // ran, migrated, or exited in the window
		}
		if wasSuspended {
			// The candidate ran and suspended before we reached it;
			// stealing a waiting thread moves no work. Put it back
			// exactly as Evict found it (honouring a racing wake).
			s.unevictSuspended(t)
			continue
		}
		out = append(out, t)
	}
	return out
}

// unevictSuspended undoes an Evict of a Suspended thread that the
// steal path does not want: the thread returns to Suspended on this
// scheduler, or straight to Ready if a wake landed while it was
// nominally Migrating.
func (s *Scheduler) unevictSuspended(t *Thread) {
	t.mu.Lock()
	if t.wakePending {
		t.wakePending = false
		t.state = Ready
		t.mu.Unlock()
		s.enqueue(t)
		return
	}
	t.state = Suspended
	t.mu.Unlock()
}

// AdoptSuspended takes ownership of an externally migrated thread
// that was Suspended at eviction: it returns to the Suspended state
// on this scheduler, to be woken by its pending event as usual. If a
// wake raced in during the flight, it is honoured immediately.
func (s *Scheduler) AdoptSuspended(t *Thread) {
	t.mu.Lock()
	t.sched = s
	if t.wakePending {
		t.wakePending = false
		t.state = Ready
		t.mu.Unlock()
		s.mu.Lock()
		s.live++
		s.threads[t.id] = t
		s.mu.Unlock()
		s.enqueue(t)
		return
	}
	t.state = Suspended
	t.mu.Unlock()
	s.mu.Lock()
	s.live++
	s.threads[t.id] = t
	s.mu.Unlock()
}

// Adopt takes ownership of a migrated-in thread and makes it
// runnable; the migration engine calls it after Reinstall.
func (s *Scheduler) Adopt(t *Thread) {
	t.mu.Lock()
	t.sched = s
	t.state = Ready
	t.mu.Unlock()
	s.mu.Lock()
	s.live++
	s.threads[t.id] = t
	s.mu.Unlock()
	s.enqueue(t)
}

// Disown releases ownership of a thread that migrated away; the
// migration engine calls it on the source scheduler.
func (s *Scheduler) Disown(t *Thread) {
	s.mu.Lock()
	s.live--
	delete(s.threads, t.id)
	s.mu.Unlock()
}

// RunUntilIdle runs ready threads until the queue drains (suspended
// threads may remain). It is the single-PE test-and-example driver;
// multi-PE machines use Run with an idle handler.
func (s *Scheduler) RunUntilIdle() {
	for {
		s.mu.Lock()
		if s.ready.n == 0 {
			s.mu.Unlock()
			return
		}
		t, depth := s.popLocked()
		s.mu.Unlock()
		s.runThread(t, depth)
	}
}

// Run executes threads until Stop is called, blocking in the idle
// handler (or the queue condvar) when nothing is runnable.
func (s *Scheduler) Run() {
	for {
		s.mu.Lock()
		for s.ready.n == 0 && !s.stop {
			idle := s.onIdle
			if idle != nil {
				s.mu.Unlock()
				if !idle() {
					return
				}
				s.mu.Lock()
				continue
			}
			s.cond.Wait()
		}
		if s.stop {
			s.mu.Unlock()
			return
		}
		t, depth := s.popLocked()
		s.mu.Unlock()
		s.runThread(t, depth)
	}
}

// Stop makes Run return once the current thread stops running.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stop = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runThread performs one full context switch cycle for a thread just
// popped at queue depth depth: switch it in, run it until it stops,
// switch it out, and dispatch on why it stopped.
func (s *Scheduler) runThread(t *Thread, depth int) {
	if err := s.switchIn(t, depth); err != nil {
		// A switch-in failure is a runtime bug (e.g. two exclusive
		// threads); surface it loudly.
		panic(fmt.Sprintf("converse: PE %d switch-in of thread %d: %v", s.pe.Index, t.id, err))
	}
	t.mu.Lock()
	t.state = Running
	t.mu.Unlock()
	out := s.resume(t)
	s.switchOut(t)

	switch out {
	case outYield:
		t.mu.Lock()
		t.state = Ready
		t.mu.Unlock()
		s.enqueue(t)
	case outSuspend:
		t.mu.Lock()
		if t.wakePending {
			t.wakePending = false
			t.state = Ready
			t.mu.Unlock()
			s.enqueue(t)
		} else {
			t.state = Suspended
			t.mu.Unlock()
		}
	case outMigrate:
		t.mu.Lock()
		t.state = Migrating
		dest := t.migrateTo
		t.mu.Unlock()
		s.mu.Lock()
		h := s.onMigrate
		s.mu.Unlock()
		if h == nil {
			panic(fmt.Sprintf("converse: thread %d requested migration but PE %d has no migration handler", t.id, s.pe.Index))
		}
		h(t, dest)
	case outExit:
		s.trace(trace.EvExit, t, 0)
		s.reap(t)
	}
}

// resume hands the processor to t until it parks or exits. A panic in
// the thread body surfaces here, on the goroutine driving the
// scheduler; it is re-raised naming the thread and PE.
func (s *Scheduler) resume(t *Thread) outcome {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("converse: thread %d on PE %d panicked: %v", t.id, s.pe.Index, r))
		}
	}()
	return t.co.resume()
}

// switchIn makes t's world visible: stack (strategy), globals (GOT
// swap), heap (interposer), and charges the platform's per-switch
// cost for a migratable ULT among depth ready threads.
func (s *Scheduler) switchIn(t *Thread, depth int) error {
	if t.strategy.Exclusive() {
		if err := s.pe.acquireExclusive(t); err != nil {
			return err
		}
	}
	if err := t.strategy.SwitchIn(s.pe, t.stack, t.StackBytesUsed()); err != nil {
		return err
	}
	if t.globals != nil {
		if err := s.pe.GOT.Swap(t.globals.Image()); err != nil {
			return err
		}
	}
	s.pe.Inter.Enter(t.heap)
	cost, err := s.pe.Prof.SwitchCost(t.CostKind())
	if err != nil {
		return err
	}
	s.pe.Clock.Advance(cost.At(depth))
	s.trace(trace.EvSwitchIn, t, 0)
	return nil
}

// trace records a scheduler event if the PE has a log attached.
func (s *Scheduler) trace(kind trace.Kind, t *Thread, arg uint64) {
	if s.pe.Trace == nil {
		return
	}
	s.pe.Trace.Record(trace.Event{
		TimeNs: s.pe.Clock.Now(),
		PE:     s.pe.Index,
		Kind:   kind,
		Thread: uint64(t.id),
		Arg:    arg,
	})
}

// switchOut hides t's world again.
func (s *Scheduler) switchOut(t *Thread) {
	s.trace(trace.EvSwitchOut, t, 0)
	s.pe.Inter.Exit()
	if err := t.strategy.SwitchOut(s.pe, t.stack, t.StackBytesUsed()); err != nil {
		panic(fmt.Sprintf("converse: PE %d switch-out of thread %d: %v", s.pe.Index, t.id, err))
	}
	if t.strategy.Exclusive() {
		s.pe.releaseExclusive(t)
	}
}

// reap releases an exited thread's resources. Stacks and heap slabs
// return to their allocators only on the birth PE; a thread that dies
// away from home keeps its address ranges reserved (mirroring the
// paper's runtime).
func (s *Scheduler) reap(t *Thread) {
	if t.globals != nil {
		_ = t.globals.Release(t.heap)
	}
	_ = t.heap.ReleaseAll()
	_ = t.strategy.Release(s.pe, t.stack)
	s.mu.Lock()
	s.live--
	delete(s.threads, t.id)
	s.mu.Unlock()
}

// readyQueue is the run order: lower priority value first, FIFO
// within a priority. It is intrusive — one doubly linked list per
// priority level, threaded through Thread.qnext/qprev — so push, pop,
// removing an arbitrary thread and walking the tail are O(1) per
// thread and allocate nothing. Levels stay sorted and are never
// dropped: a scheduler sees a handful of distinct priorities (usually
// one), so finding a level is a short scan.
type readyQueue struct {
	levels []readyLevel // ascending prio; a level may be empty
	n      int          // queued threads
}

type readyLevel struct {
	prio       int
	head, tail *Thread
}

// level returns the list for prio, creating it on first use.
func (q *readyQueue) level(prio int) *readyLevel {
	i := 0
	for i < len(q.levels) && q.levels[i].prio < prio {
		i++
	}
	if i == len(q.levels) || q.levels[i].prio != prio {
		q.levels = slices.Insert(q.levels, i, readyLevel{prio: prio})
	}
	return &q.levels[i]
}

func (q *readyQueue) push(t *Thread) {
	l := q.level(t.prio)
	t.qprev, t.qnext, t.queued = l.tail, nil, true
	if l.tail != nil {
		l.tail.qnext = t
	} else {
		l.head = t
	}
	l.tail = t
	q.n++
}

// remove unlinks t wherever it sits, reporting whether it was queued.
func (q *readyQueue) remove(t *Thread) bool {
	if !t.queued {
		return false
	}
	l := q.level(t.prio)
	if t.qprev != nil {
		t.qprev.qnext = t.qnext
	} else {
		l.head = t.qnext
	}
	if t.qnext != nil {
		t.qnext.qprev = t.qprev
	} else {
		l.tail = t.qprev
	}
	t.qprev, t.qnext, t.queued = nil, nil, false
	q.n--
	return true
}

// pop removes and returns the first thread in run order (nil if
// empty).
func (q *readyQueue) pop() *Thread {
	for i := range q.levels {
		if t := q.levels[i].head; t != nil {
			q.remove(t)
			return t
		}
	}
	return nil
}

// tail returns the last k threads of the run order (fewer if the
// queue is shorter), last to run first, without removing them.
func (q *readyQueue) tail(k int) []*Thread {
	out := make([]*Thread, 0, k)
	for i := len(q.levels) - 1; i >= 0; i-- {
		for t := q.levels[i].tail; t != nil && len(out) < k; t = t.qprev {
			out = append(out, t)
		}
	}
	return out
}
