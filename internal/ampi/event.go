package ampi

// The event-mode backend: each rank is its slot in the job's contiguous
// store and nothing else — no thread, no stack image. Its suspended
// state is an explicit record the runtime can read and ship, the one
// thing (paper §2.4, §3.2) that separates an event-driven flow from a
// thread: the frame stack in its PC says which statements it is inside,
// the slot which message it waits for. A blocking point leaves both as
// they are and returns to the owning PE's loop; message delivery
// (through the machine's Pump) hands the matching message to the
// parked statement and re-enters the interpreter, charging the
// platform's EventDispatch curve per activation instead of a thread
// switch. This is BigSim's tproc store applied to AMPI itself, and the
// reason a million-rank job fits where the ULT backend needs a
// coroutine and an isomalloc stack per rank.
//
// Migration: an event rank's migratable state is its continuation
// RECORD (shard.go) — rank number, virtual time, measured load, the
// receive it waits for, its Local (through Options.LocalPUP), its
// active collective runs, one cursor per frame of its stack, and any
// buffered messages — serialized through pup by ONE codec, whether the
// rank moves between PEs of this process (eventRecord implements
// migrate.Record) or to another process (ShardExtract/ShardInstall).
// The stack itself is SHARED CODE plus those cursors, the CPC argument:
// every rank runs the same immutable program tree, so the destination
// needs no stack or code image, only the record, and rebuilds the
// stack by one validating descent of the program's statement table.
// Moving a rank is therefore: batch-update the comm range table (one
// epoch bump per LB step), flip the engine's owner word, and round-trip
// the record through Extract/Install — no eviction, no vmem image, no
// adoption.
//
// Concurrency: each rank carries its own mutex. The owning PE's
// dispatch paths (kick, deliver) hold it for the whole activation, and
// migration's Extract/Install take it too — so a mover never observes
// a half-run activation. Extract empties the slot and marks it moving
// until Install refills it: a delivery that lands in between only
// buffers (behind the record's own messages), a kick waits, and the
// rank never counts as finished. The lock is per-rank, not per-PE,
// because ownership itself changes: a per-PE lock names a PE, and the
// name goes stale at exactly the moment it matters. In-flight messages
// that raced a move are chased: deliver re-checks the owner word (one
// atomic load; in-process runs skip it until the first LB step —
// migEpoch gates the check — while sharded runs always check, since a
// peer's move can outrun its notice) and forwards losers with
// Endpoint.Forward.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/pup"
)

// deregBatchSize bounds how many finished ranks accumulate per PE
// before their directory entries are removed in one batch (each batch
// tombstones range-table entries in place).
const deregBatchSize = 4096

// rankSeq is one rank's stream state in a sharded run, kept beside the
// slot (eventEngine.seq) and guarded by the rank's mu: sendSeq/recvSeq
// number the per-peer payload streams and held parks out-of-order
// arrivals. A message routed straight to a rank's new owner can
// overtake an older one still chasing through the old owner, and
// matching is by send order, not arrival order (see deliver).
type rankSeq struct {
	sendSeq map[int]uint64
	recvSeq map[int]uint64
	held    []*comm.Message
}

// eventEngine is the per-job store and dispatcher.
type eventEngine struct {
	job  *Job
	base comm.EntityID // entity of rank 0 (carries PinnedEntity)

	// pes[r] is rank r's current owner PE — the engine-side mirror of
	// the comm range table, flipped (with the table, in one batch) by
	// each LB step.
	pes []atomic.Int32

	// dispatch[pe] holds Float64bits of the EventDispatch.At(flows)
	// charge per activation on that PE, recomputed per LB step as
	// residency changes.
	dispatch []atomic.Uint64

	// migEpoch counts LB steps; zero means no rank has ever moved, so
	// deliver can skip the owner check entirely — in-process runs
	// only. Sharded deliver always checks: a peer's move can be in
	// flight toward this worker while the local epoch still reads zero.
	migEpoch atomic.Uint64

	// sharded mirrors the machine: this process runs only the ranks
	// whose owner PE is local. Job.remaining then counts LOCAL
	// unfinished ranks (adjusted by cross-process moves), finish never
	// deregisters or releases the store (peers still forward through
	// the directory).
	sharded bool

	// seq[r] is rank r's stream state, allocated with the store in a
	// sharded run and nil in-process, where delivery order is already
	// send order.
	seq []rankSeq

	// pendDereg[pe] batches finished ranks' directory removals.
	// deregMu guards the batches: a rank usually finishes on its
	// owner's pump, but a racing LB step can flip the owner word
	// mid-activation, landing two pumps on the same batch.
	deregMu   sync.Mutex
	pendDereg [][]comm.EntityID
}

// newEventEngine builds the store, reserves a dense pinned entity-ID
// block, and registers one comm range location table and one shared
// dispatch handler range for all ranks.
func newEventEngine(j *Job) (*eventEngine, error) {
	size := j.size
	numPEs := j.m.NumPEs()
	e := &eventEngine{
		job:       j,
		base:      j.m.Network().AllocFlowIDs(size),
		pes:       make([]atomic.Int32, size),
		dispatch:  make([]atomic.Uint64, numPEs),
		pendDereg: make([][]comm.EntityID, numPEs),
	}
	e.sharded = j.m.Sharded()
	if e.sharded {
		e.seq = make([]rankSeq, size)
	}

	j.newSlots()
	flows := make([]int, numPEs)
	pes := make([]int, size)
	local := int64(0) // every rank, unless the machine is sharded
	for r := 0; r < size; r++ {
		pes[r] = placePE(r, size, numPEs, j.opts.BlockPlacement)
		e.pes[r].Store(int32(pes[r]))
		flows[pes[r]]++
		if j.m.LocalPE(pes[r]) {
			local++
		}
	}
	e.job.remaining.Store(local)
	e.setDispatch(flows)
	if err := j.m.Network().RegisterRange(e.base, pes); err != nil {
		return nil, err
	}
	if err := j.m.RegisterEntityRange(e.base, e.base+comm.EntityID(size-1), e.deliver); err != nil {
		j.m.Network().DeregisterRange(e.base)
		return nil, err
	}
	return e, nil
}

func (e *eventEngine) idOf(rank int) comm.EntityID { return e.base + comm.EntityID(rank) }

// rankIdx inverts idOf; -1 for identities outside the job.
func (e *eventEngine) rankIdx(id comm.EntityID) int {
	if id < e.base || id >= e.base+comm.EntityID(e.job.size) {
		return -1
	}
	return int(id - e.base)
}

// peOf returns rank r's current owner PE.
func (e *eventEngine) peOf(r int) int { return int(e.pes[r].Load()) }

// setDispatch sets each populated PE's activation charge from its
// resident flow count.
func (e *eventEngine) setDispatch(flows []int) {
	for p, n := range flows {
		if n > 0 {
			e.dispatch[p].Store(math.Float64bits(e.job.m.PE(p).Prof.EventDispatch.At(n)))
		}
	}
}

// dispatchNs returns PE p's per-activation charge.
func (e *eventEngine) dispatchNs(p int) float64 {
	return math.Float64frombits(e.dispatch[p].Load())
}

// bootstrap kicks every rank selected by want, grouped by current
// owner PE on a short-lived thread per PE.
func (e *eventEngine) bootstrap(want func(r int) bool) {
	numPEs := e.job.m.NumPEs()
	perPE := make([][]int, numPEs)
	for r := 0; r < e.job.size; r++ {
		if want(r) {
			p := e.peOf(r)
			perPE[p] = append(perPE[p], r)
		}
	}
	for p := 0; p < numPEs; p++ {
		if len(perPE[p]) == 0 {
			continue
		}
		list := perPE[p]
		pe := e.job.m.PE(p)
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy: e.job.opts.Strategy,
		}, func(c *converse.Ctx) {
			for _, r := range list {
				e.kick(c, r)
			}
		})
		if err != nil {
			panic(fmt.Sprintf("ampi: event bootstrap on PE %d: %v", p, err))
		}
		pe.Sched.Start(th)
	}
}

// kick activates rank r on its owner PE without a message: the
// program's start, or the resume after an LB gate. It waits out an
// in-process move, and skips a rank that already finished or that a
// sharded move took to another process (its first activation there
// starts it).
func (e *eventEngine) kick(c *converse.Ctx, r int) {
	s := &e.job.store()[r]
	s.mu.Lock()
	for s.moving {
		s.mu.Unlock()
		c.Yield()
		s.mu.Lock()
	}
	if pe := e.peOf(r); !s.done && e.job.m.LocalPE(pe) {
		e.activateLocked(s, pe)
	}
	s.mu.Unlock()
}

// activateLocked charges one EventDispatch on pe and runs the rank
// from its resume point (the program's root, the first time) until it
// parks again or its program completes. s.mu held throughout.
func (e *eventEngine) activateLocked(s *slot, pe int) {
	e.job.m.PE(pe).Clock.Advance(e.dispatchNs(pe))
	if len(s.pc.stack) == 0 {
		s.pc.start()
	}
	e.execLocked(s)
}

// execLocked re-enters the interpreter where the rank left off and
// retires the rank if that was the rest of its program.
func (e *eventEngine) execLocked(s *slot) {
	if s.pc.exec() {
		e.finish(s.pc.Rank())
	}
}

// deliver is the shared range handler: it runs on the destination
// PE's goroutine via Machine.Pump. A message either resumes the rank
// at the statement waiting for it (one EventDispatch activation),
// buffers in its slot, or — when the rank moved after the message was
// sent — is forwarded to chase it.
func (e *eventEngine) deliver(pe int, msg *comm.Message) {
	ranks := e.job.store()
	if ranks == nil {
		return
	}
	r := e.rankIdx(msg.To)
	if r < 0 {
		return
	}
	s := &ranks[r]
	s.mu.Lock()
	// Owner check BEFORE the done check: free until the first move
	// ever happens, one atomic load after. A message that raced a move
	// chases the rank to its new PE; the extra hop shows up in Hops
	// and Arrival, and the directory stays O(1) arithmetic either way.
	// The order matters for sharded runs — a rank extracted to another
	// process leaves a cleared slot that is NOT done, and its
	// stragglers must forward, not buffer. Sharded runs always check:
	// migEpoch is LOCAL knowledge, and a sender that learned of a move
	// from the source can reach this worker before the record or MOVED
	// notice does — with the epoch still zero here, skipping the check
	// would absorb the message into a not-yet-installed slot. The
	// stale directory bounces it back toward the old owner, whose
	// flipped table returns it behind the record (link FIFO), so the
	// chase terminates after install.
	if (e.sharded || e.migEpoch.Load() != 0) && e.peOf(r) != pe {
		s.mu.Unlock()
		// An error means the rank finished and deregistered mid-chase:
		// the message is dropped.
		_ = e.job.m.Network().Endpoint(pe).Forward(msg)
		return
	}
	if s.done {
		s.mu.Unlock()
		msg.Free() // a straggler for a finished rank (program bug); drop like a closed mailbox
		return
	}
	src := e.rankIdx(msg.From)
	switch {
	case msg.Tag == tagInstalled:
		// Posted by an install (scheduleActivation) so the rank's first
		// step in its new home runs on the owning PE's own goroutine: the
		// rebuilt stack sits at its receive, not yet parked on it, and the
		// step consumes an already delivered match or parks (a sharded
		// rank that had not started starts). A duplicate — the rank moved
		// again before this one ran — finds it parked and does nothing.
		msg.Free()
		if !s.hasWait && !s.moving && !s.pc.atGate() {
			e.activateLocked(s, pe)
		}
	case msg.Seq != 0 && msg.Seq != e.seq[r].recvSeq[src]+1:
		// Sequenced stream (sharded runs): accept strictly in send
		// order. A message that crossed a migration on the direct route
		// while an older one is still chasing through the old owner
		// would otherwise match a Recv meant for its predecessor.
		e.seq[r].held = append(e.seq[r].held, msg)
		s.mu.Unlock()
		return
	default:
		if msg.Seq != 0 {
			e.seq[r].noteSeq(src, msg.Seq)
		}
		e.acceptLocked(s, pe, msg)
	}
	e.releaseHeldLocked(s, pe)
	s.mu.Unlock()
}

// acceptLocked hands one in-order message to the slot; a match for the
// statement the rank is parked in re-enters the loop, one EventDispatch
// activation on pe. s.mu held.
func (e *eventEngine) acceptLocked(s *slot, pe int, msg *comm.Message) {
	if s.accept(e.job, msg) {
		e.job.m.PE(pe).Clock.Advance(e.dispatchNs(pe))
		e.execLocked(s)
	}
}

// noteSeq records the acceptance of seq from peer rank src.
func (q *rankSeq) noteSeq(src int, seq uint64) {
	if q.recvSeq == nil {
		q.recvSeq = make(map[int]uint64)
	}
	q.recvSeq[src] = seq
}

// releaseHeldLocked re-examines held arrivals after an acceptance
// closed a stream gap, accepting any that are now next in their
// sender's order; each acceptance can close another gap. A rank that
// finished mid-release drops the rest like its mailbox. s.mu held.
func (e *eventEngine) releaseHeldLocked(s *slot, pe int) {
	if e.seq == nil {
		return
	}
	q := &e.seq[s.pc.rank]
	for progress := len(q.held) > 0; progress; {
		progress = false
		if s.done {
			q.held = nil
			return
		}
		for i, m := range q.held {
			src := e.rankIdx(m.From)
			if m.Seq != q.recvSeq[src]+1 {
				continue
			}
			q.held = append(q.held[:i], q.held[i+1:]...)
			q.noteSeq(src, m.Seq)
			e.acceptLocked(s, pe, m)
			progress = true
			break
		}
	}
}

// ---------------------------------------------------------------
// backend interface
//
// recv and work are always called from inside an activation, which
// holds the rank's lock (kick or deliver took it), so they never lock
// the rank themselves.

func (e *eventEngine) recv(pc *PC, src, tag int) *comm.Message {
	return e.job.recvLocked(pc, src, tag)
}

func (e *eventEngine) work(pc *PC, ns float64) {
	e.job.slotOf(pc).busy += ns
	e.job.m.PE(e.peOf(pc.Rank())).Clock.Advance(ns)
}

func (e *eventEngine) pe(pc *PC) int { return e.peOf(pc.Rank()) }

// usestack is a no-op: an event rank's entire migratable state is its
// record; there is no stack to reserve or dirty.
func (e *eventEngine) usestack(pc *PC, n uint64) {}

// ---------------------------------------------------------------
// Migration

// eventRecord is rank r's move from PE src to its new owner inside
// this process — the migrate.Record the LB batch hands to
// core.Machine.MigrateMany. Extract and Install are the cross-process
// pack and unpack (shard.go); the slot stays empty and marked moving
// between them. A commit holds its records in one slice and hands out
// pointers, so a move boxes nothing.
type eventRecord struct {
	e      *eventEngine
	r, src int
}

func (rec *eventRecord) ID() uint64 { return uint64(rec.e.idOf(rec.r)) }

// Extract packs the record under the rank's lock (so a mover never
// sees a half-run activation) and empties the slot. A rank that
// finished after the plan was made is not moved (ErrNotEvictable).
func (rec *eventRecord) Extract(p *pup.PUPer) error {
	e := rec.e
	ranks := e.job.store()
	if ranks == nil {
		return fmt.Errorf("ampi: rank %d migrated after job completion", rec.r)
	}
	s := &ranks[rec.r]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return fmt.Errorf("ampi: rank %d finished before its move: %w", rec.r, converse.ErrNotEvictable)
	}
	if err := e.extractLocked(p, s, e.peOf(rec.r), e.job.m.PE(rec.src).Clock.Now()); err != nil {
		return fmt.Errorf("ampi: rank %d %w", rec.r, err)
	}
	s.moving = true
	return nil
}

// Install refills the slot from Extract's bytes. The owner word and
// the comm range table were already flipped by the LB batch. A rank
// parked at a receive takes its first step on its new PE's goroutine;
// one parked at the gate waits for the gate to resume it.
func (rec *eventRecord) Install(data []byte) error {
	e := rec.e
	ranks := e.job.store()
	if ranks == nil {
		return fmt.Errorf("ampi: rank %d installed after job completion", rec.r)
	}
	s := &ranks[rec.r]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.moving = false
	if _, err := e.installLocked(s, data); err != nil {
		return fmt.Errorf("ampi: rank %d: %w", rec.r, err)
	}
	if len(s.pc.stack) > 0 && !s.pc.atGate() {
		return e.scheduleActivation(rec.r, e.peOf(rec.r))
	}
	return nil
}

// loads appends every live rank's (id, owner, busy) sample to buf —
// the event-mode measurement walk.
func (e *eventEngine) loads(buf []loadbalance.Item) []loadbalance.Item {
	ranks := e.job.store()
	for r := range ranks {
		s := &ranks[r]
		s.mu.Lock()
		done, busy := s.done, s.busy
		s.mu.Unlock()
		if done {
			continue
		}
		buf = append(buf, loadbalance.Item{ID: uint64(e.idOf(r)), PE: e.peOf(r), Load: busy})
	}
	return buf
}

// commit makes one LB step's moves: ONE comm range-table batch (one
// epoch bump total, not one per rank), the engine's owner words and
// per-PE dispatch charges, then the record round trips through
// core.Machine.MigrateMany — which also charges the postal model for
// each record's bytes and counts it in MigrationStats, exactly as for
// a thread move. Returns ranks moved.
func (e *eventEngine) commit(rmoves []comm.RangeMove) (int, error) {
	if len(rmoves) == 0 {
		return 0, nil
	}
	moves := make([]core.Move, len(rmoves))
	recs := make([]eventRecord, len(rmoves))
	for i, mv := range rmoves {
		src := e.peOf(mv.Index)
		recs[i] = eventRecord{e, mv.Index, src}
		moves[i] = core.Move{R: &recs[i], Src: src, Dest: mv.To}
	}
	if err := e.job.m.Network().MoveRangeBatch(e.base, rmoves); err != nil {
		return 0, fmt.Errorf("table batch: %w", err)
	}
	for _, mv := range rmoves {
		e.pes[mv.Index].Store(int32(mv.To))
	}
	// Residency changed: recompute each PE's activation charge from
	// the live flow counts.
	flows := make([]int, e.job.m.NumPEs())
	ranks := e.job.store()
	for r := range ranks {
		s := &ranks[r]
		s.mu.Lock()
		done := s.done
		s.mu.Unlock()
		if !done {
			flows[e.peOf(r)]++
		}
	}
	e.setDispatch(flows)
	e.migEpoch.Add(1)
	moved, err := e.job.m.MigrateMany(moves)
	if err != nil {
		return moved, fmt.Errorf("record batch: %w", err)
	}
	return moved, nil
}

// resetLoads zeroes the per-rank busy measurements after an LB step.
func (e *eventEngine) resetLoads() {
	ranks := e.job.store()
	for r := range ranks {
		s := &ranks[r]
		s.mu.Lock()
		s.busy = 0
		s.mu.Unlock()
	}
}

// resumeGate re-dispatches every rank parked at the LB gate, on its
// (possibly new) owner PE, charging one activation each. A rank an
// outside Rebalance has in transit is kicked too: the kick waits for
// its Install.
func (e *eventEngine) resumeGate() {
	ranks := e.job.store()
	e.bootstrap(func(r int) bool {
		s := &ranks[r]
		s.mu.Lock()
		parked := s.moving || s.pc.atGate()
		s.mu.Unlock()
		return parked
	})
}

// ---------------------------------------------------------------
// Completion

// finish retires rank r: its slot's buffers and program state are
// released immediately (exec already dropped the frame stack and the
// collective map), and its directory entry
// joins the owning PE's batched deregistration — so a completed
// million-rank job walks the Machine back to its idle footprint.
// Called with s.mu held (from within the rank's final activation).
func (e *eventEngine) finish(r int) {
	s := &e.job.store()[r]
	s.done = true
	s.mbox, s.head = nil, 0
	s.hasWait = false
	s.pc.Local = nil
	if e.sharded {
		e.seq[r] = rankSeq{}
		// Peers may still Forward stragglers through this worker's
		// directory, so entries are never deregistered and the store
		// is never released; the process exit reclaims both. remaining
		// counts local ranks only — the shard layer's termination
		// barrier combines the per-worker Done() signals.
		e.job.remaining.Add(-1)
		return
	}
	p := e.peOf(r)
	e.deregMu.Lock()
	e.pendDereg[p] = append(e.pendDereg[p], e.idOf(r))
	var flush []comm.EntityID
	if len(e.pendDereg[p]) >= deregBatchSize {
		flush = e.pendDereg[p]
		e.pendDereg[p] = make([]comm.EntityID, 0, deregBatchSize)
	}
	e.deregMu.Unlock()
	if flush != nil {
		e.job.m.Network().DeregisterBatch(flush)
	}
	if e.job.remaining.Add(-1) == 0 {
		e.shutdown(r)
	}
}

// shutdown runs once, on whichever PE finished the last rank: the
// atomic decrement chain orders it after every other PE's final slot
// writes. It snapshots results, flushes every deregistration batch,
// removes the location table and the shared handler range, and
// releases the store.
// caller is the rank whose final activation triggered shutdown: its
// s.mu is already held, so the snapshot loop must not re-lock it.
// Every other rank is done too, but a straggling external Rebalance
// may still hold (or be about to take) its lock, so the loop locks
// around each read.
func (e *eventEngine) shutdown(caller int) {
	ranks := e.job.store()
	vts := make([]float64, e.job.size)
	for r := range ranks {
		if r != caller {
			ranks[r].mu.Lock()
		}
		vts[r] = ranks[r].pc.vt
		if r != caller {
			ranks[r].mu.Unlock()
		}
	}
	e.deregMu.Lock()
	for p := range e.pendDereg {
		e.job.m.Network().DeregisterBatch(e.pendDereg[p])
		e.pendDereg[p] = nil
	}
	e.deregMu.Unlock()
	e.job.m.DeregisterEntityRange(e.base, e.base+comm.EntityID(e.job.size-1))
	e.job.m.Network().DeregisterRange(e.base)
	e.job.vts = vts
	e.job.slots.Store(nil)
	e.job.dropBlocks()
}
