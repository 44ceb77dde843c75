// Package sdag implements Structured Dagger (§2.4.2, Figure 1): a
// coordination language expressing the life cycle of a message-driven
// object with sequential (Seq), message-triggered (When), unordered
// (Overlap), iterative (For) and plain-code (Atomic) constructs. The
// combinators compile to an event-driven finite-state machine: no
// thread, no stack — suspension is a return to the scheduler, and an
// incoming message resumes exactly the waiting construct.
//
// The package reproduces the paper's example program:
//
//	for (i=0; i<MAX_ITER; i++) {
//	  atomic {sendStripToLeftAndRight();}
//	  overlap {
//	    when getStripFromLeft(msg)  { atomic { copyStripFromLeft(msg); } }
//	    when getStripFromRight(msg) { atomic { copyStripFromRight(msg); } }
//	  }
//	  atomic { doWork(); }
//	}
//
// as sdag.For(MAX_ITER, func(i) Stmt { ... }) — see the stencil
// example and tests.
package sdag

import "fmt"

// Msg is an incoming message payload.
type Msg any

// Stmt is one SDAG construct. Statements are immutable programs; an
// Executor instantiates and runs them.
type Stmt interface {
	// start begins the statement; done must be called exactly once
	// when it completes. Implementations must not block.
	start(ex *Executor, done func())
}

// tramp is a reusable continuation trampoline: schedule enqueues a
// continuation, drain runs enqueued continuations (and whatever they
// enqueue) to quiescence from a bounded stack. Deeply nested
// event-driven control flow — SDAG For loops — becomes iteration
// instead of recursion. The queue is walked with a head index and
// truncated once empty, so one backing array is reused across the
// whole program instead of re-slicing (and eventually re-allocating)
// on every continuation. A tramp is not safe for concurrent use; each
// Executor owns one.
type tramp struct {
	work     []func()
	head     int // next work entry to run; the buffer is reused across drains
	draining bool
}

// schedule enqueues fn to run in the current (or next) drain.
func (t *tramp) schedule(fn func()) { t.work = append(t.work, fn) }

// drain runs queued continuations to quiescence. Re-entrant calls
// (a continuation delivering a message that schedules more work) are
// no-ops: the outermost drain picks the new work up.
func (t *tramp) drain() {
	if t.draining {
		return
	}
	t.draining = true
	for t.head < len(t.work) {
		fn := t.work[t.head]
		t.work[t.head] = nil // release the closure
		t.head++
		fn()
	}
	t.work, t.head = t.work[:0], 0
	t.draining = false
}

// Executor runs one SDAG program against a mailbox of tagged
// messages. Deliver may be called at any time; messages with no
// waiting When are buffered in arrival order, exactly like a chare's
// message queue.
type Executor struct {
	waiting  map[int][]*waiter
	buffered map[int]*msgQueue
	tramp    tramp // trampoline queue: avoids unbounded recursion
	finished bool
}

type waiter struct {
	fn        func(Msg)
	done      func()
	ref       uint64 // reference-number filter (hasRef)
	hasRef    bool
	cancelled bool // a sibling in a Case fired first
}

// matches reports whether the waiter accepts a message with the given
// reference number.
func (w *waiter) matches(ref uint64) bool {
	return !w.cancelled && (!w.hasRef || w.ref == ref)
}

type refMsg struct {
	ref uint64
	m   Msg
}

// msgQueue is one tag's buffered messages: a slice consumed from a
// head index so the common oldest-first take is O(1) and the backing
// array's capacity is reused, instead of shifting the whole suffix
// down on every consumption.
type msgQueue struct {
	head int
	ms   []refMsg
}

func (q *msgQueue) len() int { return len(q.ms) - q.head }

func (q *msgQueue) push(m refMsg) { q.ms = append(q.ms, m) }

// takeMatch removes and returns the oldest buffered message accepted
// by the (hasRef, ref) filter. A mid-queue hit shifts the (typically
// empty) live prefix up by one rather than the whole suffix down.
func (q *msgQueue) takeMatch(hasRef bool, ref uint64) (Msg, bool) {
	for i := q.head; i < len(q.ms); i++ {
		if !hasRef || q.ms[i].ref == ref {
			m := q.ms[i].m
			copy(q.ms[q.head+1:i+1], q.ms[q.head:i])
			q.ms[q.head] = refMsg{}
			q.head++
			if q.head == len(q.ms) {
				q.ms, q.head = q.ms[:0], 0
			}
			return m, true
		}
	}
	return nil, false
}

// Run starts program s and returns its executor. The program runs
// until it needs a message; drive it with Deliver and observe
// Finished.
func Run(s Stmt) *Executor {
	ex := &Executor{
		waiting:  make(map[int][]*waiter),
		buffered: make(map[int]*msgQueue),
	}
	ex.schedule(func() { s.start(ex, func() { ex.finished = true }) })
	ex.drain()
	return ex
}

// Finished reports whether the whole program has completed.
func (ex *Executor) Finished() bool { return ex.finished }

// PendingWhens returns how many When constructs are waiting.
func (ex *Executor) PendingWhens() int {
	n := 0
	for _, ws := range ex.waiting {
		for _, w := range ws {
			if !w.cancelled {
				n++
			}
		}
	}
	return n
}

// BufferedMessages returns how many delivered messages await a When.
func (ex *Executor) BufferedMessages() int {
	n := 0
	for _, q := range ex.buffered {
		n += q.len()
	}
	return n
}

// Deliver hands a tagged message to the program: it resumes the
// oldest matching When waiting on the tag, or is buffered.
func (ex *Executor) Deliver(tag int, m Msg) { ex.DeliverRef(tag, 0, m) }

// DeliverRef delivers a message carrying a reference number, matching
// SDAG's when entry[ref](...) constructs: a When with a reference
// filter fires only on an equal ref; an unfiltered When fires on any.
func (ex *Executor) DeliverRef(tag int, ref uint64, m Msg) {
	if w := ex.takeWaiter(tag, ref); w != nil {
		ex.schedule(func() {
			w.fn(m)
			w.done()
		})
	} else {
		q := ex.buffered[tag]
		if q == nil {
			q = &msgQueue{}
			ex.buffered[tag] = q
		}
		q.push(refMsg{ref: ref, m: m})
	}
	ex.drain()
}

// takeWaiter removes and returns the oldest live waiter on tag that
// accepts ref. One compacting pass drops every cancelled waiter and
// closes the gap in place — no repeated suffix shifts.
func (ex *Executor) takeWaiter(tag int, ref uint64) *waiter {
	ws := ex.waiting[tag]
	if len(ws) == 0 {
		return nil
	}
	var found *waiter
	kept := ws[:0]
	for _, w := range ws {
		if w.cancelled {
			continue
		}
		if found == nil && w.matches(ref) {
			found = w
			continue
		}
		kept = append(kept, w)
	}
	// Zero the tail so dropped waiters don't pin their closures.
	for i := len(kept); i < len(ws); i++ {
		ws[i] = nil
	}
	ex.waiting[tag] = kept
	return found
}

func (ex *Executor) schedule(fn func()) { ex.tramp.schedule(fn) }

// drain runs queued continuations to quiescence (a trampoline: deep
// For loops become iteration, not recursion).
func (ex *Executor) drain() { ex.tramp.drain() }

// ---------------------------------------------------------------
// Constructs

type atomicStmt struct{ fn func() }

// Atomic wraps sequential code: it runs to completion without
// suspending (the paper's atomic construct encapsulating plain C++).
func Atomic(fn func()) Stmt { return atomicStmt{fn} }

func (a atomicStmt) start(ex *Executor, done func()) {
	a.fn()
	done()
}

type seqStmt struct{ stmts []Stmt }

// Seq runs statements in order, each starting when its predecessor
// completes.
func Seq(stmts ...Stmt) Stmt { return seqStmt{stmts} }

func (s seqStmt) start(ex *Executor, done func()) {
	var run func(i int)
	run = func(i int) {
		if i >= len(s.stmts) {
			done()
			return
		}
		s.stmts[i].start(ex, func() {
			ex.schedule(func() { run(i + 1) })
		})
	}
	run(0)
}

type whenStmt struct {
	tag    int
	ref    uint64
	hasRef bool
	body   func(Msg)
}

// When suspends until a message with the given tag arrives, then runs
// body with it. If a matching message is already buffered it fires
// immediately.
func When(tag int, body func(Msg)) Stmt { return whenStmt{tag: tag, body: body} }

// WhenRef is When with a reference number: only a message delivered
// with DeliverRef(tag, ref, ...) and an equal ref fires it — SDAG's
// when entry[ref](...) construct, used to keep iterations of
// overlapping exchanges apart.
func WhenRef(tag int, ref uint64, body func(Msg)) Stmt {
	return whenStmt{tag: tag, ref: ref, hasRef: true, body: body}
}

// install registers the when (consuming a buffered message if one
// matches) and returns the waiter, or nil if it fired from the
// buffer.
func (w whenStmt) install(ex *Executor, done func()) *waiter {
	if q := ex.buffered[w.tag]; q != nil {
		if m, ok := q.takeMatch(w.hasRef, w.ref); ok {
			ex.schedule(func() {
				w.body(m)
				done()
			})
			return nil
		}
	}
	wt := &waiter{fn: w.body, done: done, ref: w.ref, hasRef: w.hasRef}
	ex.waiting[w.tag] = append(ex.waiting[w.tag], wt)
	return wt
}

func (w whenStmt) start(ex *Executor, done func()) {
	w.install(ex, done)
}

type overlapStmt struct{ stmts []Stmt }

// Overlap runs its children concurrently in any completion order and
// finishes when all have finished — "the two events ... can occur and
// be processed in any order".
func Overlap(stmts ...Stmt) Stmt { return overlapStmt{stmts} }

func (o overlapStmt) start(ex *Executor, done func()) {
	if len(o.stmts) == 0 {
		done()
		return
	}
	remaining := len(o.stmts)
	child := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	for _, s := range o.stmts {
		s := s
		ex.schedule(func() { s.start(ex, child) })
	}
}

type forStmt struct {
	n    int
	body func(i int) Stmt
}

// For runs body(0) ... body(n-1) in sequence — the outer iteration
// loop of Figure 1.
func For(n int, body func(i int) Stmt) Stmt { return forStmt{n, body} }

func (f forStmt) start(ex *Executor, done func()) {
	var iter func(i int)
	iter = func(i int) {
		if i >= f.n {
			done()
			return
		}
		f.body(i).start(ex, func() {
			ex.schedule(func() { iter(i + 1) })
		})
	}
	iter(0)
}

type whileStmt struct {
	cond func() bool
	body func() Stmt
}

// While runs body() repeatedly while cond() holds (checked before
// each iteration).
func While(cond func() bool, body func() Stmt) Stmt { return whileStmt{cond, body} }

func (w whileStmt) start(ex *Executor, done func()) {
	var iter func()
	iter = func() {
		if !w.cond() {
			done()
			return
		}
		w.body().start(ex, func() {
			ex.schedule(iter)
		})
	}
	iter()
}

type caseStmt struct{ whens []whenStmt }

// Case waits on several When alternatives and completes when the
// FIRST one fires; the others are cancelled (their messages, should
// they arrive later, buffer for future whens). All children must be
// When or WhenRef constructs; anything else panics at build time.
func Case(alternatives ...Stmt) Stmt {
	c := caseStmt{}
	for _, s := range alternatives {
		w, ok := s.(whenStmt)
		if !ok {
			panic(fmt.Sprintf("sdag: Case alternatives must be When/WhenRef, got %T", s))
		}
		c.whens = append(c.whens, w)
	}
	if len(c.whens) == 0 {
		panic("sdag: empty Case")
	}
	return c
}

func (c caseStmt) start(ex *Executor, done func()) {
	fired := false
	var installed []*waiter
	fire := func(body func(Msg), m Msg) {
		if fired {
			return
		}
		fired = true
		for _, w := range installed {
			if w != nil {
				w.cancelled = true
			}
		}
		body(m)
		done()
	}
	for _, w := range c.whens {
		w := w
		wrapped := whenStmt{tag: w.tag, ref: w.ref, hasRef: w.hasRef, body: func(m Msg) {
			fire(w.body, m)
		}}
		wt := wrapped.install(ex, func() {})
		installed = append(installed, wt)
		if wt == nil {
			// Fired synchronously from the buffer: the scheduled
			// closure will run fire(); stop installing alternatives.
			break
		}
	}
}

// Nop is an empty statement.
func Nop() Stmt { return Atomic(func() {}) }

// String diagnostics for the executor.
func (ex *Executor) String() string {
	return fmt.Sprintf("sdag.Executor{finished=%v whens=%d buffered=%d}", ex.finished, ex.PendingWhens(), ex.BufferedMessages())
}
