// Package ampi is an Adaptive-MPI-like layer (§4.1, §4.5): MPI ranks
// vastly outnumber processors, and the runtime migrates them for load
// balance without any change to "application" code.
//
// A rank runs a program: a tree of Proc combinators (program.go) that
// mirrors the MPI calls the paper names — blocking and nonblocking
// send and receive, the collectives, MPI_Yield, and MPI_Migrate, the
// collective that measures per-rank loads, runs a balancer, and moves
// ranks. Options.Mode picks the flow of control behind each rank: a
// migratable user-level thread (isomalloc stack + heap, privatized
// globals via swap-global), or a continuation record dispatched by its
// PE's loop (event.go). NewJob keeps §2's blocking-thread style — a
// plain func body over a Rank handle — as a one-statement program on
// thread ranks.
package ampi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/migrate"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// CollAlgo selects the collective-communication topology.
type CollAlgo int

const (
	// CollTree (default) runs collectives over a k-ary spanning tree
	// of ranks (arity Options.TreeArity): partial values combine up
	// the tree and results broadcast down, so no rank serializes more
	// than k messages per phase.
	CollTree CollAlgo = iota
	// CollFlat is the paper-era flat topology: a one-level star in
	// which every rank talks directly to the root, which serializes
	// O(P) messages. It runs on the same collective schedule as the
	// trees, so flat versus tree compares two topologies, not two
	// executors.
	CollFlat
	// CollTopoTree builds the spanning tree along the machine's
	// torus/PE-group hierarchy (Options.Topo) instead of rank order:
	// ranks first combine within their logical node, node leaders
	// combine within their PE group, and group leaders combine across
	// groups — the same grouping HierarchicalLB exploits — so tree
	// edges follow physical neighbours and collective hop counts drop.
	CollTopoTree
)

// DefaultTreeArity is the spanning-tree fan-out when Options.TreeArity
// is zero.
const DefaultTreeArity = 4

// Topology describes the machine shape collective trees can exploit:
// ranks live on logical nodes arranged in a 1-D torus (ring), and
// nodes belong to contiguous PE groups — the hierarchy
// loadbalance.HierarchicalLB balances along. The zero value disables
// topology modeling entirely (no hop charges, rank-order trees
// unchanged).
type Topology struct {
	// Nodes is the logical node count along the torus. Ranks map to
	// nodes with the job's placement function (block or round-robin),
	// so co-resident ranks share a node. 0 disables topology; under
	// CollTopoTree it defaults to the machine's PE count.
	Nodes int
	// GroupSize is how many consecutive nodes form one group (default
	// loadbalance.DefaultGroupSize) — CollTopoTree keeps tree edges
	// inside a node, then inside a group, before crossing groups.
	GroupSize int
	// HopNs is the virtual time charged per torus hop on every
	// collective tree edge (default Options.MsgOverheadNs). A pure
	// function of the two ranks and the options, so virtual time stays
	// invariant across mode, PE count, and migration.
	HopNs float64
}

// Execution modes: how each rank exists as a flow of control on the
// simulating machine (the paper's §2 taxonomy applied to AMPI
// itself).
const (
	// ModeULT (default): one migratable user-level thread per rank —
	// a converse coroutine with an isomalloc stack, charged the
	// platform's thread-switch curve per activation.
	ModeULT = "ult"
	// ModeEvent: one small state struct per rank in a contiguous
	// per-job store; every blocking call is a continuation dispatched
	// inline by the owning PE's loop (no goroutine, no channel, no
	// stack), charged the platform's EventDispatch curve. Requires a
	// continuation Program (NewProgram); raw func bodies cannot be
	// suspended without a stack.
	ModeEvent = "event"
)

// normalizeMode folds the zero value to ModeULT and rejects unknown
// strings.
func normalizeMode(mode string) (string, error) {
	switch mode {
	case "", ModeULT:
		return ModeULT, nil
	case ModeEvent:
		return ModeEvent, nil
	default:
		return "", fmt.Errorf("ampi: unknown Mode %q (want %q or %q)", mode, ModeULT, ModeEvent)
	}
}

// Options configures a Job.
type Options struct {
	// Strategy is the rank threads' stack technique; default
	// isomalloc (the configuration §4.5 benchmarks).
	Strategy converse.StackStrategy
	// StackSize per rank (default converse.DefaultStackSize).
	StackSize uint64
	// Globals optionally privatizes a module's globals per rank; the
	// machine must have been booted with the same layout.
	Globals *swapglobal.Layout
	// BlockPlacement maps rank r to PE r·P/N (contiguous rank
	// blocks, AMPI's default mapping) instead of round-robin r mod P.
	BlockPlacement bool

	// Collectives selects the collective algorithm (default
	// CollTree).
	Collectives CollAlgo
	// TreeArity is the spanning-tree fan-out k for CollTree (default
	// DefaultTreeArity).
	TreeArity int
	// Topo describes the torus/PE-group machine shape. When set (Nodes
	// > 0) every collective tree edge — rank-order or topology-aware —
	// is charged HopNs per torus hop into virtual time and counted in
	// comm stats (Network.TopoHops), making the rank-order vs
	// CollTopoTree comparison an A/B at identical cost model. The zero
	// value keeps the topology-blind behavior bit-for-bit.
	Topo Topology

	// MsgOverheadNs charges every point-to-point message this many
	// virtual nanoseconds of software overhead on the sender's clock
	// at send and on the receiver's clock at consume — the
	// marshalling/matching CPU cost that makes flat collectives O(P)
	// at the root. Default 0 keeps the pure postal model (message
	// cost appears only as latency).
	MsgOverheadNs float64

	// Mode selects the flow-of-control mechanism behind each rank:
	// ModeULT (default, also the zero value) or ModeEvent. Event mode
	// requires a continuation Program — see NewProgram. Event ranks
	// migrate like ULT ranks (the Migrate gate, or a runtime-driven
	// Rebalance), but move as continuation records instead of stack
	// images.
	Mode string

	// LocalPUP serializes an event rank's PC.Local into its migration
	// record (shard.go), for a move between PEs of one process as for
	// one across processes. Packing: called with the rank's Local
	// (never nil) and a packing PUPer; returns the same value.
	// Unpacking: called with nil and an unpacking PUPer; returns the
	// reconstructed state. Moving a rank whose Local is non-nil fails
	// without it, by name.
	LocalPUP func(p *pup.PUPer, local any) (any, error)
}

// Job is one AMPI program: size ranks running it, mapped round-robin
// (or in blocks) over the machine's PEs.
type Job struct {
	m    *core.Machine
	opts Options

	size int

	// slots holds every rank's slot, on either backend. An event job
	// releases it at completion and keeps the final predicted times in vts.
	slots atomic.Pointer[[]slot]
	vts   []float64

	// ranks is a ULT job's thread side, one per slot. rankOf inverts
	// entity → rank; built once and never mutated (migration moves a
	// thread, not its identity), so reads are lock-free.
	ranks  []Rank
	rankOf map[comm.EntityID]int

	// remaining counts the ranks that have not finished their program —
	// in a sharded run, those of this process (event.go).
	remaining atomic.Int64

	// program is the shared Proc tree both modes interpret, as its
	// statement table and what else one walk reads off it (numberSites);
	// ev is the event engine in event mode; be is the backend: ultBE or
	// ev.
	program
	ev *eventEngine
	be backend

	// mu guards traffic and err.
	mu      sync.Mutex
	traffic map[uint64]float64 // rank pair lo<<32 | hi → bytes (one word: the map's fast path)
	err     error              // how the last Run or RunParallel ended (Err)

	// lbMu serializes Rebalance steps (plan → commit → reset).
	lbMu sync.Mutex

	// Gate state (the Migrate and Checkpoint Procs): every rank parks at
	// the gate; the driver loop (drive) services it at quiescence — an
	// LB step or a checkpoint — and resumes the ranks.
	gateMu      sync.Mutex
	gateArrived int
	gate        migrateProc
	lbMoved     int

	// blocks holds the ranks' frame stacks, mailbox arrays and
	// collective runs, cut at first use (blocks.go).
	blocks blocks
}

// slot is one rank's entire flow-of-control state on either backend: a
// 136-byte record in the job's contiguous store, a frame stack sized to
// the program from its first activation on, and whatever the program
// keeps in pc.Local. The backends differ only in how a parked rank
// resumes and moves: the owning PE's loop re-enters an event rank, whose
// record ships (event.go); a ULT rank's thread (Rank) is woken, and moves
// as a stack image. The 32-bit fields and the flags share the last two
// words.
type slot struct {
	// mu guards every field but pc, which only the rank's activation
	// touches: an event activation holds mu throughout, a thread takes it
	// to receive.
	mu sync.Mutex

	// pc is embedded so &s.pc goes to the interpreter without a separate
	// allocation per rank; pc.stack is where the rank resumes.
	pc PC

	// mbox buffers messages that arrived before a matching receive,
	// consumed from head so takes do not shift the slice.
	mbox []*comm.Message

	// got is the matched delivery on its way to the statement the rank is
	// parked inside: set by accept, taken by the re-run step's receive.
	got *comm.Message

	// busy accumulates an event rank's Work nanoseconds since the last LB
	// step — the record's analogue of a thread's consumed CPU time.
	busy float64

	// waiting is what the parked statement asked for, valid while
	// hasWait.
	waiting matchSpec
	head    int32

	hasWait bool
	// done and moving are an event rank's: it finished its program, or an
	// in-process move extracted its record and has not yet installed it.
	done, moving bool
}

// Rank is the thread side of a ULT rank: the migratable thread that runs
// its slot's program, and the handle a NewJob body gets. Its exported
// methods may only be called from inside that body, and each runs on
// the rank's program context, charging what the matching Proc statement
// charges.
type Rank struct {
	job  *Job
	rank int
	th   *converse.Thread
	ctx  *converse.Ctx
}

// matchSpec is what a receive waits for. Both fields are 32 bits, so
// the spec packs into one word of the slot: job sizes and tags are
// bounded by math.MaxInt32 where they enter (newJobCommon, the tag
// checks), and newSpec refuses a source beyond it by name.
type matchSpec struct {
	src, tag int32
}

// newSpec narrows a receive's (src, tag) to its match spec. A value
// that does not fit would alias another rank or tag, so it panics: the
// checks where tags and sizes enter make this unreachable for a valid
// program.
func newSpec(src, tag int) matchSpec {
	if int(int32(src)) != src || int(int32(tag)) != tag {
		panic(fmt.Sprintf("ampi: receive from (%d, %d) exceeds the 32-bit match spec", src, tag))
	}
	return matchSpec{src: int32(src), tag: int32(tag)}
}

// wideTag names a tag no receive can match: beyond math.MaxInt32, the
// widest a match spec holds.
func wideTag(what string, tag int) string {
	return fmt.Sprintf("ampi: %s tag %d exceeds math.MaxInt32, the widest tag a receive matches", what, tag)
}

// matchesTag reports whether a message tagged tag satisfies the spec.
// AnyTag matches application tags only: as in MPI, a wildcard receive
// never takes the runtime's own (negative-tagged) collective traffic.
func (s matchSpec) matchesTag(tag int) bool {
	if s.tag == AnyTag {
		return tag >= 0
	}
	return int(s.tag) == tag
}

// NewJob creates size thread ranks on machine m, each running body — §2's
// blocking-thread style — as the one statement of a program (NewProgram).
// A func body blocks on its thread's stack, so Mode "event" is refused.
func NewJob(m *core.Machine, size int, opts Options, body func(*Rank)) (*Job, error) {
	if opts.Mode == ModeEvent {
		return nil, fmt.Errorf("ampi: Mode %q needs a continuation program; use NewProgram (a raw func body cannot be suspended without a stack)", ModeEvent)
	}
	return NewProgram(m, size, opts, Do(func(pc *PC) { body(&pc.job.ranks[pc.rank]) }))
}

// newJobCommon validates and defaults NewProgram's options and returns
// the empty job shell.
func newJobCommon(m *core.Machine, size int, opts *Options) (*Job, error) {
	if size < 1 {
		return nil, fmt.Errorf("ampi: size %d must be ≥ 1", size)
	}
	if size > math.MaxInt32 {
		return nil, fmt.Errorf("ampi: size %d exceeds math.MaxInt32, the widest rank a match spec holds", size)
	}
	mode, err := normalizeMode(opts.Mode)
	if err != nil {
		return nil, err
	}
	opts.Mode = mode
	if opts.Strategy == nil {
		opts.Strategy = migrate.Isomalloc{}
	}
	if opts.TreeArity < 0 {
		return nil, fmt.Errorf("ampi: TreeArity %d must be ≥ 0", opts.TreeArity)
	}
	if opts.TreeArity == 0 {
		opts.TreeArity = DefaultTreeArity
	}
	switch opts.Collectives {
	case CollTree, CollFlat, CollTopoTree:
	default:
		return nil, fmt.Errorf("ampi: unknown collective algorithm %d", opts.Collectives)
	}
	if opts.Topo.Nodes < 0 || opts.Topo.GroupSize < 0 {
		return nil, fmt.Errorf("ampi: Topology %+v must be non-negative", opts.Topo)
	}
	if opts.Collectives == CollTopoTree && opts.Topo.Nodes == 0 {
		// Topology-aware trees need a shape; default to one logical
		// node per simulating PE. Pass explicit Nodes for predictions
		// that must stay invariant across PE counts.
		opts.Topo.Nodes = m.NumPEs()
	}
	if opts.Topo.Nodes > 0 {
		if opts.Topo.GroupSize == 0 {
			opts.Topo.GroupSize = loadbalance.DefaultGroupSize
		}
		if opts.Topo.HopNs == 0 {
			opts.Topo.HopNs = opts.MsgOverheadNs
		}
	}
	if m.Sharded() && opts.Mode != ModeEvent {
		// ULT ranks block real goroutine stacks whose closures cannot
		// cross a process boundary; only continuation records can.
		return nil, fmt.Errorf("ampi: sharded machines support %q mode only", ModeEvent)
	}
	return &Job{
		m: m, opts: *opts, size: size,
		traffic: make(map[uint64]float64),
	}, nil
}

// placePE maps rank r of size ranks onto one of numPEs processors:
// round-robin by default, contiguous blocks with BlockPlacement.
func placePE(r, size, numPEs int, block bool) int {
	if block {
		return r * numPEs / size
	}
	return r % numPEs
}

// ringDist is the 1-D torus distance between nodes a and b of n.
func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := n - d; alt < d {
		return alt
	}
	return d
}

// edgeHops returns the logical torus hops a collective tree edge
// between ranks a and b crosses: the ring distance between their
// logical nodes under Options.Topo, or 0 when no topology is
// configured. It is a pure function of the two ranks and the job
// options — never of current placement — so hop charges keep virtual
// time invariant across mode, PE count, and migration.
func (j *Job) edgeHops(a, b int) int {
	t := j.opts.Topo
	if t.Nodes <= 0 {
		return 0
	}
	eff := t.Nodes
	if eff > j.size {
		eff = j.size
	}
	na := placePE(a, j.size, eff, j.opts.BlockPlacement)
	nb := placePE(b, j.size, eff, j.opts.BlockPlacement)
	return ringDist(na, nb, eff)
}

// Start makes every rank runnable: a thread per ULT rank, or for an
// event job one short-lived thread per populated PE that dispatches the
// first activation of each resident rank — so initial work runs on the
// owning PE under both Run drivers (and in parallel under RunParallel).
func (j *Job) Start() {
	if e := j.ev; e != nil {
		e.bootstrap(func(r int) bool { return j.m.LocalPE(e.peOf(r)) })
		return
	}
	for i := range j.ranks {
		j.ranks[i].th.Scheduler().Start(j.ranks[i].th)
	}
}

// Run starts the job and drives the machine to quiescence
// (deterministic single-goroutine mode). If the program parks at a
// Migrate gate, the driver services it — measure, plan, move, resume
// — and keeps driving until the program completes. At a full gate
// the machine is quiescent with zero in-flight messages, so moving
// ranks cannot reorder deliveries: per-rank results stay
// bit-identical with and without migration. Err reports how the run
// ended: nil; the gate's LB error, with the ranks left parked at the
// gate; or, for a run that went quiescent with ranks unfinished, a
// deadlock naming each stuck rank and the receive it waits in.
func (j *Job) Run() { j.drive(j.m.RunUntilQuiescent) }

// RunParallel is Run with one goroutine per PE (the wall-clock mode):
// the same loop, each phase ending when the machine's detector finds
// it quiescent.
func (j *Job) RunParallel() {
	j.drive(func() { j.m.RunParallel(func(quiet bool) bool { return quiet }) })
}

// drive is both drivers' loop. Each time toQuiescence returns, the
// machine is quiescent: the loop services a full gate, or records
// how the run ended.
func (j *Job) drive(toQuiescence func()) {
	j.Start()
	var err error
	for {
		toQuiescence()
		if !j.gateReady() {
			err = j.deadlock()
			break
		}
		if err = j.serviceGate(); err != nil {
			break
		}
	}
	j.mu.Lock()
	j.err = err
	j.mu.Unlock()
}

// gateArrive registers one rank at the gate and records the gate's
// statement (Migrate and Checkpoint are collective: every rank names the
// same one, so last-write-wins is fine).
func (j *Job) gateArrive(g migrateProc) {
	if j.m.Sharded() {
		// The gate counts arrivals against the full job size, but a
		// sharded worker only runs its local ranks — the gate would
		// never fill. Cross-process migration goes through the shard
		// record API (ShardExtract/ShardInstall) instead.
		panic("ampi: the Migrate gate is not supported in sharded runs; move ranks with ShardExtract/ShardInstall")
	}
	j.gateMu.Lock()
	j.gate = g
	j.gateArrived++
	if j.gateArrived > j.size {
		j.gateMu.Unlock()
		panic("ampi: more gate arrivals than ranks (Migrate is collective, once per rank per gate)")
	}
	j.gateMu.Unlock()
}

// gateReady reports whether every rank is parked at the gate.
func (j *Job) gateReady() bool {
	j.gateMu.Lock()
	defer j.gateMu.Unlock()
	return j.gateArrived == j.size
}

// serviceGate runs one LB step, or writes one checkpoint, for a full
// gate and resumes the ranks. The machine is quiescent when this runs.
// A failed step or write returns its error and leaves the ranks parked
// at the gate.
func (j *Job) serviceGate() error {
	j.gateMu.Lock()
	g := j.gate
	j.gateArrived, j.gate = 0, migrateProc{}
	j.gateMu.Unlock()
	if g.strategy == nil {
		if err := j.checkpoint(g.w); err != nil {
			return fmt.Errorf("ampi: Checkpoint gate: %w", err)
		}
	} else {
		moved, err := j.Rebalance(g.strategy)
		if err != nil {
			return fmt.Errorf("ampi: LB gate: %w", err)
		}
		j.gateMu.Lock()
		j.lbMoved += moved
		j.gateMu.Unlock()
	}
	if j.ev != nil {
		j.ev.resumeGate()
		return nil
	}
	for i := range j.ranks {
		j.ranks[i].th.Awaken()
	}
	return nil
}

// LBMoved returns the total ranks moved by Migrate-gate LB steps.
func (j *Job) LBMoved() int {
	j.gateMu.Lock()
	defer j.gateMu.Unlock()
	return j.lbMoved
}

// Size returns the number of ranks.
func (j *Job) Size() int { return j.size }

// Mode returns the job's (normalized) execution mode.
func (j *Job) Mode() string { return j.opts.Mode }

// Rank returns thread rank r's handle (for inspection in tests/harnesses).
func (j *Job) Rank(r int) *Rank { return &j.ranks[r] }

// PEOf returns the PE rank r's thread currently runs on — the
// placement workload models consult when grouping messages by
// destination processor.
func (j *Job) PEOf(r int) int {
	if j.ev != nil {
		return j.ev.peOf(r)
	}
	return j.ranks[r].th.Scheduler().PE().Index
}

// Done reports whether every rank has finished its body or program.
func (j *Job) Done() bool { return j.remaining.Load() == 0 }

// entity returns rank r's comm identity: its thread's id (which thread
// migration forwards), or its place in an event job's pinned range.
func (j *Job) entity(r int) comm.EntityID {
	if j.ev != nil {
		return j.ev.idOf(r)
	}
	return comm.EntityID(j.ranks[r].th.ID())
}

// senderOf maps a message's From identity back to its rank, or -1.
func (j *Job) senderOf(from comm.EntityID) int {
	if j.ev != nil {
		return j.ev.rankIdx(from)
	}
	if i, ok := j.rankOf[from]; ok {
		return i
	}
	return -1
}

// ---------------------------------------------------------------
// The slot: one mailbox, one send and one receive path for both
// backends

// newSlots allocates the job's store, each slot's PC bound to its rank.
func (j *Job) newSlots() {
	store := make([]slot, j.size)
	for r := range store {
		store[r].pc.job, store[r].pc.rank = j, int32(r)
	}
	j.slots.Store(&store)
}

// store returns the slots, or nil after an event job released them.
func (j *Job) store() []slot {
	if p := j.slots.Load(); p != nil {
		return *p
	}
	return nil
}

// slotOf returns the slot pc runs in.
func (j *Job) slotOf(pc *PC) *slot { return &j.store()[pc.rank] }

// matches reports whether m satisfies spec.
func (j *Job) matches(spec matchSpec, m *comm.Message) bool {
	return spec.matchesTag(m.Tag) && (spec.src == AnySource || j.entity(int(spec.src)) == m.From)
}

// accept hands a delivered message to the slot: to the receive the rank
// is parked in (true), or to the mailbox. s.mu held.
func (s *slot) accept(j *Job, msg *comm.Message) bool {
	if s.hasWait && j.matches(s.waiting, msg) {
		s.hasWait, s.got = false, msg
		return true
	}
	switch {
	case len(s.mbox) < cap(s.mbox):
	case s.head > 0:
		// Reuse the taken prefix: a busy mailbox may never drain.
		n := copy(s.mbox, s.mbox[s.head:])
		clear(s.mbox[n:])
		s.mbox, s.head = s.mbox[:n], 0
	case cap(s.mbox) < maxMboxCap:
		s.mbox = append(j.mailbox(cap(s.mbox)), s.mbox...)
	}
	s.mbox = append(s.mbox, msg)
	return false
}

// take removes and returns the oldest buffered message matching spec.
// s.mu held.
func (s *slot) take(j *Job, spec matchSpec) *comm.Message {
	for i := int(s.head); i < len(s.mbox); i++ {
		if j.matches(spec, s.mbox[i]) {
			m := s.mbox[i]
			copy(s.mbox[s.head+1:i+1], s.mbox[s.head:i])
			s.mbox[s.head] = nil
			s.head++
			if int(s.head) == len(s.mbox) {
				s.mbox, s.head = s.mbox[:0], 0
			}
			return m
		}
	}
	return nil
}

// recvLocked is the one receive: the delivery the rank parked for, else
// the oldest buffered match. The PE consuming it is held to its arrival
// — the receiver cannot proceed before it — and charged the receive's
// software overhead. With neither, the rank parks on (src, tag) and it
// returns nil: the step that asked runs again once a match is
// accepted. s.mu held.
func (j *Job) recvLocked(pc *PC, src, tag int) *comm.Message {
	s := j.slotOf(pc)
	m := s.got
	if m != nil {
		s.got = nil
	} else {
		spec := newSpec(src, tag)
		if m = s.take(j, spec); m == nil {
			s.waiting, s.hasWait = spec, true
			return nil
		}
	}
	c := j.m.PE(j.be.pe(pc)).Clock
	c.AdvanceTo(m.Arrival)
	if ovh := j.opts.MsgOverheadNs; ovh > 0 {
		c.Advance(ovh)
	}
	return m
}

// send is the one send: rank pc's message to dest, stamped with pc.vt
// and charged its software overhead on the rank's PE. A ULT job's
// application traffic also feeds the communication graph the
// comm-aware balancer consumes; a sharded job numbers each per-peer
// stream.
func (j *Job) send(pc *PC, dest, tag int, data []byte) {
	if dest < 0 || dest >= j.size {
		panic(fmt.Sprintf("ampi: program Send to rank %d of %d", dest, j.size))
	}
	if j.ev == nil && tag >= 0 && dest != pc.Rank() {
		pair := uint64(min(pc.Rank(), dest))<<32 | uint64(max(pc.Rank(), dest))
		j.mu.Lock()
		j.traffic[pair] += float64(len(data)) + 64 // payload + envelope
		j.mu.Unlock()
	}
	p := j.m.PE(j.be.pe(pc))
	if ovh := j.opts.MsgOverheadNs; ovh > 0 {
		p.Clock.Advance(ovh)
	}
	msg := comm.NewMessage()
	msg.To, msg.From, msg.Tag = j.entity(dest), j.entity(pc.Rank()), tag
	msg.SendTime, msg.VTime = p.Clock.Now(), pc.vt
	msg.SetData(data)
	if j.ev != nil && j.ev.sharded {
		// Number the stream so the receiver can restore send order if
		// this message and a predecessor take different routes across a
		// migration. Non-sharded runs only move ranks at quiescent
		// gates, so their delivery order is already send order — they
		// skip the map work and their envelopes stay byte-identical.
		s := &j.ev.seq[pc.rank]
		if s.sendSeq == nil {
			s.sendSeq = make(map[int]uint64)
		}
		s.sendSeq[dest]++
		msg.Seq = s.sendSeq[dest]
	}
	if err := j.m.Network().Endpoint(p.Index).Send(msg); err != nil {
		panic(fmt.Sprintf("ampi: send: %v", err))
	}
}

// ---------------------------------------------------------------
// Rank: the thread side

// run is the rank's thread body: it interprets the slot's program,
// and each time a step parks, suspends until a delivery or the LB
// gate wakes it.
func (r *Rank) run(c *converse.Ctx) {
	r.ctx = c
	pc := r.pc()
	pc.start()
	for !pc.exec() {
		r.block()
	}
	if r.job.remaining.Add(-1) == 0 {
		r.job.endULT()
	}
}

// endULT runs once, in the thread of whichever rank finished last: it
// removes every rank's directory entry and deliver handler, which hold
// the job, so a machine that runs many jobs does not keep the finished
// ones.
func (j *Job) endULT() {
	for i := range j.ranks {
		j.m.DeregisterEntity(j.entity(i))
	}
}

// block suspends the thread until a delivery or the LB gate wakes it.
func (r *Rank) block() { r.ctx.Suspend() }

// pc returns the rank's program context, in its slot.
func (r *Rank) pc() *PC { return &r.job.store()[r.rank].pc }

// deliver is the machine's per-entity handler: the slot accepts the
// message, and a match for the receive the rank is parked in wakes its
// thread.
func (r *Rank) deliver(_ int, msg *comm.Message) {
	s := &r.job.store()[r.rank]
	s.mu.Lock()
	wake := s.accept(r.job, msg)
	s.mu.Unlock()
	if wake {
		r.th.Awaken()
	}
}

// Rank returns the caller's rank number.
func (r *Rank) Rank() int { return r.rank }

// PE returns the processor the rank currently runs on.
func (r *Rank) PE() int { return r.ctx.PE().Index }

// Thread exposes the underlying migratable thread.
func (r *Rank) Thread() *converse.Thread { return r.th }

// Work models ns nanoseconds of local computation (PC.Work).
func (r *Rank) Work(ns float64) { r.pc().Work(ns) }

// Send is PC.Send with a bad tag or destination returned as an error.
func (r *Rank) Send(dest, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("ampi: Send tag %d must be ≥ 0", tag)
	}
	if tag > math.MaxInt32 {
		return errors.New(wideTag("Send", tag))
	}
	if dest < 0 || dest >= r.job.size {
		return fmt.Errorf("ampi: Send to rank %d of %d", dest, r.job.size)
	}
	r.pc().sendRaw(dest, tag, data)
	return nil
}

// Recv blocks until a message from src (or AnySource) with tag (or
// AnyTag, which matches tags ≥ 0 only) arrives, applies the Recv
// statement's cost model, and returns the payload and sender rank. The
// payload is the caller's to keep.
func (r *Rank) Recv(src, tag int) ([]byte, int, error) {
	if tag < 0 && tag != AnyTag {
		return nil, 0, fmt.Errorf("ampi: Recv tag %d must be ≥ 0 or AnyTag", tag)
	}
	if tag > math.MaxInt32 {
		return nil, 0, errors.New(wideTag("Recv", tag))
	}
	pc := r.pc()
	m := r.job.be.recv(pc, src, tag)
	for ; m == nil; m = r.job.be.recv(pc, src, tag) {
		r.block()
	}
	pc.consume(m)
	return m.Data, r.job.senderOf(m.From), nil
}

// allreduceSites are Rank.Allreduce's sites, one per op: a rank's run
// at each is made by its first call and reused by every later one.
var allreduceSites = func() map[string]*collSite {
	sites := map[string]*collSite{}
	for _, op := range []string{"sum", "max", "min"} {
		combine, _ := combiner(op)
		sites[op] = &collSite{name: "Allreduce", kind: collAllreduce, combine: combine}
	}
	return sites
}()

// Allreduce combines each rank's value with op ("sum", "max", "min")
// and returns the result on every rank: the Allreduce combinator's
// schedule, run on the rank's program context by the one collective
// executor (collRun.advance).
func (r *Rank) Allreduce(op string, v float64) (float64, error) {
	if _, err := combiner(op); err != nil {
		return 0, err
	}
	pc := r.pc()
	site := allreduceSites[op]
	run := pc.collAt(site)
	if run == nil {
		run = pc.newRun(site)
		run.link, pc.colls = pc.colls, run
	}
	run.next, run.val = 0, v
	for !run.advance(pc, true) {
		r.block()
	}
	return run.val, nil
}
