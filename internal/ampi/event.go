package ampi

// The event-mode backend: each rank is one eventRank struct in a
// contiguous per-job store — no thread, no stack image. Its suspended
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
// stack by one validating descent of the tree. Moving a rank is
// therefore: batch-update the comm range table (one epoch bump per LB
// step), flip the engine's owner word, and round-trip the record
// through Extract/Install — no eviction, no vmem image, no adoption.
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

// eventRank is one rank's entire flow-of-control state: a 216-byte
// slot, a frame stack from its first activation on, and whatever the
// program keeps in pc.Local — versus a coroutine and an isomalloc stack.
type eventRank struct {
	mu sync.Mutex // guards every field; held for the whole of an activation

	// pc is embedded so &er.pc goes to the interpreter without a
	// separate allocation per rank; pc.stack is where the rank resumes.
	pc PC

	// mbox buffers messages that arrived before a matching Recv,
	// consumed from head so takes do not shift the slice.
	mbox []*comm.Message
	head int

	// waiting is what the statement the rank is parked inside asked
	// for; got is the matched delivery on its way to that statement: set
	// by acceptLocked, taken by the recv call the re-run step makes.
	waiting matchSpec
	hasWait bool
	got     *comm.Message

	// busy accumulates Work nanoseconds since the last LB step — the
	// event-mode load measurement (the record's analogue of a thread's
	// consumed CPU time).
	busy float64

	// sendSeq/recvSeq number the per-peer payload streams and held
	// parks out-of-order arrivals, all nil until a sharded run needs
	// them: a message routed straight to a rank's new owner can
	// overtake an older one still chasing through the old owner, and
	// matching is by send order, not arrival order (see deliver).
	sendSeq map[int]uint64
	recvSeq map[int]uint64
	held    []*comm.Message

	done bool
	// moving: an in-process move extracted the record and has not yet
	// installed it.
	moving bool
}

// eventEngine is the per-job store and dispatcher.
type eventEngine struct {
	job  *Job
	size int
	base comm.EntityID // entity of rank 0 (carries PinnedEntity)

	// ranks points at the contiguous store; swapped to nil at
	// completion so straggler deliveries after release are safe.
	ranks atomic.Pointer[[]eventRank]

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
	// whose owner PE is local. remaining then counts LOCAL unfinished
	// ranks (adjusted by cross-process moves), finish never deregisters
	// or releases the store (peers still forward through the
	// directory).
	sharded bool

	// sites numbers the program's collective sites and siteNum inverts
	// it (numberSites): a record names a site by number.
	sites   []*collSite
	siteNum map[*collSite]int

	// lbMu serializes Rebalance steps (plan → table batch → records).
	lbMu sync.Mutex

	// pendDereg[pe] batches finished ranks' directory removals.
	// deregMu guards the batches: a rank usually finishes on its
	// owner's pump, but a racing LB step can flip the owner word
	// mid-activation, landing two pumps on the same batch.
	deregMu   sync.Mutex
	pendDereg [][]comm.EntityID

	remaining atomic.Int64

	// vts snapshots every rank's final predicted time when the last
	// rank finishes, so results survive the store's release.
	vts []float64
}

// newEventEngine builds the store, reserves a dense pinned entity-ID
// block, and registers one comm range location table and one shared
// dispatch handler range for all ranks.
func newEventEngine(j *Job) (*eventEngine, error) {
	size := j.size
	numPEs := j.m.NumPEs()
	e := &eventEngine{
		job:       j,
		size:      size,
		base:      j.m.Network().AllocFlowIDs(size),
		pes:       make([]atomic.Int32, size),
		dispatch:  make([]atomic.Uint64, numPEs),
		pendDereg: make([][]comm.EntityID, numPEs),
	}
	e.sharded = j.m.Sharded()
	e.sites, e.siteNum = numberSites(j.prog)

	store := make([]eventRank, size)
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
		pc := &store[r].pc
		pc.job, pc.rank, pc.be = j, r, e
	}
	e.remaining.Store(local)
	for p := 0; p < numPEs; p++ {
		if flows[p] > 0 {
			e.dispatch[p].Store(math.Float64bits(j.m.PE(p).Prof.EventDispatch.At(flows[p])))
		}
	}
	e.ranks.Store(&store)
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
	if id < e.base || id >= e.base+comm.EntityID(e.size) {
		return -1
	}
	return int(id - e.base)
}

// peOf returns rank r's current owner PE.
func (e *eventEngine) peOf(r int) int { return int(e.pes[r].Load()) }

// dispatchNs returns PE p's per-activation charge.
func (e *eventEngine) dispatchNs(p int) float64 {
	return math.Float64frombits(e.dispatch[p].Load())
}

// store returns the rank slice, or nil after release.
func (e *eventEngine) store() []eventRank {
	if p := e.ranks.Load(); p != nil {
		return *p
	}
	return nil
}

// start bootstraps the job: one short-lived thread per populated PE
// dispatches the initial activation of each resident rank, so initial
// work runs on the owning PE under both Run drivers (and in parallel
// under RunParallel).
func (e *eventEngine) start() {
	e.bootstrap(func(r int) bool { return e.job.m.LocalPE(e.peOf(r)) })
}

// bootstrap kicks every rank selected by want, grouped by current
// owner PE on a short-lived thread per PE.
func (e *eventEngine) bootstrap(want func(r int) bool) {
	numPEs := e.job.m.NumPEs()
	perPE := make([][]int, numPEs)
	for r := 0; r < e.size; r++ {
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
	er := &e.store()[r]
	er.mu.Lock()
	for er.moving {
		er.mu.Unlock()
		c.Yield()
		er.mu.Lock()
	}
	if pe := e.peOf(r); !er.done && e.job.m.LocalPE(pe) {
		e.activateLocked(er, pe)
	}
	er.mu.Unlock()
}

// activateLocked charges one EventDispatch on pe and runs the rank
// from its resume point (the program's root, the first time) until it
// parks again or its program completes. er.mu held throughout.
func (e *eventEngine) activateLocked(er *eventRank, pe int) {
	e.job.m.PE(pe).Clock.Advance(e.dispatchNs(pe))
	if len(er.pc.stack) == 0 {
		er.pc.start(e.job.prog)
	}
	e.execLocked(er)
}

// execLocked re-enters the interpreter where the rank left off and
// retires the rank if that was the rest of its program.
func (e *eventEngine) execLocked(er *eventRank) {
	if er.pc.exec() {
		e.finish(er.pc.rank)
	}
}

// deliver is the shared range handler: it runs on the destination
// PE's goroutine via Machine.Pump. A message either resumes the rank
// at the statement waiting for it (one EventDispatch activation),
// buffers in its slot, or — when the rank moved after the message was
// sent — is forwarded to chase it.
func (e *eventEngine) deliver(pe int, msg *comm.Message) {
	ranks := e.store()
	if ranks == nil {
		return
	}
	r := e.rankIdx(msg.To)
	if r < 0 {
		return
	}
	er := &ranks[r]
	er.mu.Lock()
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
		er.mu.Unlock()
		if err := e.job.m.Network().Endpoint(pe).Forward(msg); err != nil {
			return // rank finished and deregistered mid-chase; drop
		}
		return
	}
	if er.done {
		er.mu.Unlock()
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
		if !er.hasWait && !er.moving && !er.pc.atGate() {
			e.activateLocked(er, pe)
		}
	case msg.Seq != 0 && msg.Seq != er.recvSeq[src]+1:
		// Sequenced stream (sharded runs): accept strictly in send
		// order. A message that crossed a migration on the direct route
		// while an older one is still chasing through the old owner
		// would otherwise match a Recv meant for its predecessor.
		er.held = append(er.held, msg)
		er.mu.Unlock()
		return
	default:
		if msg.Seq != 0 {
			er.noteSeq(src, msg.Seq)
		}
		e.acceptLocked(er, pe, msg)
	}
	e.releaseHeldLocked(er, pe)
	er.mu.Unlock()
}

// acceptLocked hands one in-order message to the rank: if it matches
// what the parked statement waits for, that statement's next recv
// call gets it and the rank runs on; else buffer. er.mu held.
func (e *eventEngine) acceptLocked(er *eventRank, pe int, msg *comm.Message) {
	if er.hasWait && e.matches(er.waiting, msg) {
		er.hasWait, er.got = false, msg
		p := e.job.m.PE(pe)
		p.Clock.Advance(e.dispatchNs(pe)) // the activation: the rank re-enters the loop
		p.Clock.AdvanceTo(msg.Arrival)
		if ovh := e.job.opts.MsgOverheadNs; ovh > 0 {
			p.Clock.Advance(ovh)
		}
		e.execLocked(er)
		return
	}
	er.mbox = append(er.mbox, msg)
}

// noteSeq records the acceptance of seq from peer rank src.
func (er *eventRank) noteSeq(src int, seq uint64) {
	if er.recvSeq == nil {
		er.recvSeq = make(map[int]uint64)
	}
	er.recvSeq[src] = seq
}

// releaseHeldLocked re-examines held arrivals after an acceptance
// closed a stream gap, accepting any that are now next in their
// sender's order; each acceptance can close another gap. A rank that
// finished mid-release drops the rest like its mailbox. er.mu held.
func (e *eventEngine) releaseHeldLocked(er *eventRank, pe int) {
	for progress := len(er.held) > 0; progress; {
		progress = false
		if er.done {
			er.held = nil
			return
		}
		for i, m := range er.held {
			src := e.rankIdx(m.From)
			if m.Seq != er.recvSeq[src]+1 {
				continue
			}
			er.held = append(er.held[:i], er.held[i+1:]...)
			er.noteSeq(src, m.Seq)
			e.acceptLocked(er, pe, m)
			progress = true
			break
		}
	}
}

func (e *eventEngine) matches(spec matchSpec, m *comm.Message) bool {
	return spec.matchesTag(m.Tag) && (spec.src == AnySource || e.idOf(spec.src) == m.From)
}

// take removes and returns the oldest buffered message matching spec.
func (er *eventRank) take(e *eventEngine, spec matchSpec) *comm.Message {
	for i := er.head; i < len(er.mbox); i++ {
		if e.matches(spec, er.mbox[i]) {
			m := er.mbox[i]
			copy(er.mbox[er.head+1:i+1], er.mbox[er.head:i])
			er.mbox[er.head] = nil
			er.head++
			if er.head == len(er.mbox) {
				er.mbox, er.head = er.mbox[:0], 0
			}
			return m
		}
	}
	return nil
}

// ---------------------------------------------------------------
// backend interface
//
// send/recv/work/lbpoint are always called from inside an activation,
// which holds the rank's lock (kick or deliver took it), so they never
// lock the rank themselves.

func (e *eventEngine) send(pc *PC, dest, tag int, data []byte) {
	if dest < 0 || dest >= e.size {
		panic(fmt.Sprintf("ampi: program Send to rank %d of %d", dest, e.size))
	}
	p := e.job.m.PE(e.peOf(pc.rank))
	if ovh := e.job.opts.MsgOverheadNs; ovh > 0 {
		p.Clock.Advance(ovh)
	}
	msg := comm.NewMessage()
	msg.To, msg.From, msg.Tag = e.idOf(dest), e.idOf(pc.rank), tag
	msg.SendTime, msg.VTime = p.Clock.Now(), pc.vt
	msg.SetData(data)
	if e.sharded {
		// Number the stream so the receiver can restore send order if
		// this message and a predecessor take different routes across a
		// migration. Non-sharded runs only move ranks at quiescent
		// gates, so their delivery order is already send order — they
		// skip the map work and their envelopes stay byte-identical.
		er := &e.store()[pc.rank]
		if er.sendSeq == nil {
			er.sendSeq = make(map[int]uint64)
		}
		er.sendSeq[dest]++
		msg.Seq = er.sendSeq[dest]
	}
	if err := e.job.m.Network().Endpoint(p.Index).Send(msg); err != nil {
		panic(fmt.Sprintf("ampi: event send: %v", err))
	}
}

func (e *eventEngine) recv(pc *PC, src, tag int) *comm.Message {
	er := &e.store()[pc.rank]
	if m := er.got; m != nil {
		er.got = nil // the delivery this call parked for; acceptLocked charged it
		return m
	}
	spec := matchSpec{src: src, tag: tag}
	if m := er.take(e, spec); m != nil {
		// Consuming a buffered message is not a fresh activation (the
		// rank is already running); only the arrival constraint and
		// software overhead are charged, mirroring the thread path.
		p := e.job.m.PE(e.peOf(pc.rank))
		p.Clock.AdvanceTo(m.Arrival)
		if ovh := e.job.opts.MsgOverheadNs; ovh > 0 {
			p.Clock.Advance(ovh)
		}
		return m
	}
	er.waiting, er.hasWait = spec, true
	return nil
}

func (e *eventEngine) work(pc *PC, ns float64) {
	e.store()[pc.rank].busy += ns
	e.job.m.PE(e.peOf(pc.rank)).Clock.Advance(ns)
}

func (e *eventEngine) pe(pc *PC) int { return e.peOf(pc.rank) }

// usestack is a no-op: an event rank's entire migratable state is its
// record; there is no stack to reserve or dirty.
func (e *eventEngine) usestack(pc *PC, n uint64) {}

// lbpoint registers the rank's arrival at the job's LB gate; the
// Migrate frame on top of its stack is what marks it parked there (the
// record analogue of a thread suspending in MPI_Migrate) until the
// runtime resumes it, possibly on a different PE. A gate sends no
// messages and never touches vt, so predicted time stays bit-identical
// with and without migration.
func (e *eventEngine) lbpoint(pc *PC) bool {
	pc.job.gateArrive()
	return false
}

// ---------------------------------------------------------------
// Migration

// eventRecord is rank r's move from PE src to its new owner inside
// this process — the migrate.Record the LB batch hands to
// core.Machine.MigrateMany. Extract and Install are the cross-process
// pack and unpack (shard.go); the slot stays empty and marked moving
// between them.
type eventRecord struct {
	e      *eventEngine
	r, src int
}

func (rec eventRecord) ID() uint64 { return uint64(rec.e.idOf(rec.r)) }

// Extract packs the record under the rank's lock (so a mover never
// sees a half-run activation) and empties the slot. A rank that
// finished after the plan was made is not moved (ErrNotEvictable).
func (rec eventRecord) Extract(p *pup.PUPer) error {
	e := rec.e
	ranks := e.store()
	if ranks == nil {
		return fmt.Errorf("ampi: rank %d migrated after job completion", rec.r)
	}
	er := &ranks[rec.r]
	er.mu.Lock()
	defer er.mu.Unlock()
	if er.done {
		return fmt.Errorf("ampi: rank %d finished before its move: %w", rec.r, converse.ErrNotEvictable)
	}
	if err := e.extractLocked(p, er, e.peOf(rec.r), e.job.m.PE(rec.src).Clock.Now()); err != nil {
		return fmt.Errorf("ampi: rank %d %w", rec.r, err)
	}
	er.moving = true
	return nil
}

// Install refills the slot from Extract's bytes. The owner word and
// the comm range table were already flipped by the LB batch. A rank
// parked at a receive takes its first step on its new PE's goroutine;
// one parked at the gate waits for the gate to resume it.
func (rec eventRecord) Install(data []byte) error {
	e := rec.e
	ranks := e.store()
	if ranks == nil {
		return fmt.Errorf("ampi: rank %d installed after job completion", rec.r)
	}
	er := &ranks[rec.r]
	er.mu.Lock()
	defer er.mu.Unlock()
	er.moving = false
	if _, err := e.installLocked(er, data); err != nil {
		return fmt.Errorf("ampi: rank %d: %w", rec.r, err)
	}
	if len(er.pc.stack) > 0 && !er.pc.atGate() {
		return e.scheduleActivation(rec.r, e.peOf(rec.r))
	}
	return nil
}

// collectEventLoads appends every live rank's (id, owner, busy)
// sample to buf — the event-mode measurement walk.
func (e *eventEngine) collectEventLoads(buf []loadbalance.Item) []loadbalance.Item {
	ranks := e.store()
	for r := range ranks {
		er := &ranks[r]
		er.mu.Lock()
		done, busy := er.done, er.busy
		er.mu.Unlock()
		if done {
			continue
		}
		buf = append(buf, loadbalance.Item{ID: uint64(e.idOf(r)), PE: e.peOf(r), Load: busy})
	}
	return buf
}

// applyMoves commits one LB step: ONE comm range-table batch (one
// epoch bump total, not one per rank), the engine's owner words and
// per-PE dispatch charges, then the record round trips through
// core.Machine.MigrateMany — which also charges the postal model for
// each record's bytes and counts it in MigrationStats, exactly as for
// a thread move. Returns ranks moved.
func (e *eventEngine) applyMoves(moves []core.Move, rmoves []comm.RangeMove) (int, error) {
	if len(moves) == 0 {
		return 0, nil
	}
	if err := e.job.m.Network().MoveRangeBatch(e.base, rmoves); err != nil {
		return 0, fmt.Errorf("ampi: event LB table batch: %w", err)
	}
	for _, mv := range rmoves {
		e.pes[mv.Index].Store(int32(mv.To))
	}
	// Residency changed: recompute each PE's activation charge from
	// the live flow counts.
	flows := make([]int, e.job.m.NumPEs())
	ranks := e.store()
	for r := range ranks {
		er := &ranks[r]
		er.mu.Lock()
		done := er.done
		er.mu.Unlock()
		if !done {
			flows[e.peOf(r)]++
		}
	}
	for p := range flows {
		if flows[p] > 0 {
			e.dispatch[p].Store(math.Float64bits(e.job.m.PE(p).Prof.EventDispatch.At(flows[p])))
		}
	}
	e.migEpoch.Add(1)
	moved, err := e.job.m.MigrateMany(moves)
	if err != nil {
		return moved, fmt.Errorf("ampi: event LB record batch: %w", err)
	}
	return moved, nil
}

// resetLoads zeroes the per-rank busy measurements after an LB step.
func (e *eventEngine) resetLoads() {
	ranks := e.store()
	for r := range ranks {
		er := &ranks[r]
		er.mu.Lock()
		er.busy = 0
		er.mu.Unlock()
	}
}

// resumeGate re-dispatches every rank parked at the LB gate, on its
// (possibly new) owner PE, charging one activation each. A rank an
// outside Rebalance has in transit is kicked too: the kick waits for
// its Install.
func (e *eventEngine) resumeGate() {
	ranks := e.store()
	e.bootstrap(func(r int) bool {
		er := &ranks[r]
		er.mu.Lock()
		parked := er.moving || er.pc.atGate()
		er.mu.Unlock()
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
// Called with er.mu held (from within the rank's final activation).
func (e *eventEngine) finish(r int) {
	er := &e.store()[r]
	er.done = true
	er.mbox, er.head = nil, 0
	er.hasWait = false
	er.pc.Local = nil
	er.sendSeq, er.recvSeq, er.held = nil, nil, nil
	if e.sharded {
		// Peers may still Forward stragglers through this worker's
		// directory, so entries are never deregistered and the store
		// is never released; the process exit reclaims both. remaining
		// counts local ranks only — the shard layer's termination
		// barrier combines the per-worker Done() signals.
		e.remaining.Add(-1)
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
	if e.remaining.Add(-1) == 0 {
		e.shutdown(r)
	}
}

// shutdown runs once, on whichever PE finished the last rank: the
// atomic decrement chain orders it after every other PE's final slot
// writes. It snapshots results, flushes every deregistration batch,
// removes the location table and the shared handler range, and
// releases the store.
// caller is the rank whose final activation triggered shutdown: its
// er.mu is already held, so the snapshot loop must not re-lock it.
// Every other rank is done too, but a straggling external Rebalance
// may still hold (or be about to take) its lock, so the loop locks
// around each read.
func (e *eventEngine) shutdown(caller int) {
	ranks := e.store()
	e.vts = make([]float64, e.size)
	for r := range ranks {
		if r != caller {
			ranks[r].mu.Lock()
		}
		e.vts[r] = ranks[r].pc.vt
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
	e.job.m.DeregisterEntityRange(e.base, e.base+comm.EntityID(e.size-1))
	e.job.m.Network().DeregisterRange(e.base)
	e.ranks.Store(nil)
}

// vtOf returns rank r's predicted time, live or snapshotted.
func (e *eventEngine) vtOf(r int) float64 {
	if ranks := e.store(); ranks != nil {
		er := &ranks[r]
		er.mu.Lock()
		defer er.mu.Unlock()
		return er.pc.vt
	}
	return e.vts[r]
}
