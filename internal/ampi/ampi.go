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
	"fmt"
	"sync"

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

	// Aggregate routes application sends (tag ≥ 0) through comm's
	// streaming aggregation: per-destination-PE envelopes amortize
	// the postal Alpha over many small messages. Collective/internal
	// traffic stays on the direct path. Ranks flush their PE's
	// buffers before blocking in Recv and at exit, so aggregation
	// never deadlocks a quiescing machine.
	Aggregate bool
	// AggPolicy tunes flush thresholds when Aggregate is set; zero
	// fields select the comm defaults.
	AggPolicy comm.AggPolicy

	// Mode selects the flow-of-control mechanism behind each rank:
	// ModeULT (default, also the zero value) or ModeEvent. Event mode
	// requires a continuation Program — see NewProgram — and does not
	// support Aggregate. Event ranks migrate like ULT ranks (the
	// Migrate gate, or a runtime-driven Rebalance), but move as
	// continuation records instead of stack images.
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

	size  int
	ranks []*Rank

	// rankOf inverts entity → rank for ULT jobs. Built once at NewProgram
	// and never mutated (migration moves a thread, not its identity),
	// so reads are lock-free; it replaces an O(size) scan per Recv.
	rankOf map[comm.EntityID]int

	// Continuation-program state (NewProgram). prog is the shared
	// immutable Proc tree both modes interpret; pcs are the per-rank
	// program contexts in ULT mode; ev is the event engine in event
	// mode (exactly one of ranks/ev is populated for program jobs).
	prog Proc
	pcs  []*PC
	ev   *eventEngine

	mu      sync.Mutex
	traffic map[[2]int]float64 // rank pair (lo,hi) → bytes

	// LB-gate state (the Migrate Proc): every rank parks at the gate;
	// the Run/RunParallel driver services it at quiescence and resumes
	// the ranks post-plan.
	gateMu       sync.Mutex
	gateArrived  int
	gateStrategy loadbalance.Strategy
	lbMoved      int
}

// Rank is one thread rank: a migratable thread plus a tag/source-matched
// mailbox, the state the ULT backend (ultBE) blocks against. Its
// exported methods are the handle a NewJob body gets; they may only be
// called from inside that body, and each runs on the rank's program
// context, charging what the matching Proc statement charges.
type Rank struct {
	job  *Job
	rank int
	pc   *PC
	th   *converse.Thread
	ctx  *converse.Ctx

	mu   sync.Mutex
	mbox []*comm.Message
	// waiting is what a parked recv asked for, valid while hasWait —
	// held by value, like eventRank's, so a receive allocates nothing.
	waiting matchSpec
	hasWait bool
}

type matchSpec struct {
	src, tag int
}

// matchesTag reports whether a message tagged tag satisfies the spec.
// AnyTag matches application tags only: as in MPI, a wildcard receive
// never takes the runtime's own (negative-tagged) collective traffic.
func (s matchSpec) matchesTag(tag int) bool {
	if s.tag == AnyTag {
		return tag >= 0
	}
	return s.tag == tag
}

// NewJob creates size thread ranks on machine m, each running body — §2's
// blocking-thread style — as the one statement of a program (NewProgram).
// A func body blocks on its thread's stack, so Mode "event" is refused.
func NewJob(m *core.Machine, size int, opts Options, body func(*Rank)) (*Job, error) {
	if opts.Mode == ModeEvent {
		return nil, fmt.Errorf("ampi: Mode %q needs a continuation program; use NewProgram (a raw func body cannot be suspended without a stack)", ModeEvent)
	}
	return NewProgram(m, size, opts, Do(func(pc *PC) { body(pc.be.(ultBE).r) }))
}

// newJobCommon validates and defaults NewProgram's options and returns
// the empty job shell.
func newJobCommon(m *core.Machine, size int, opts *Options) (*Job, error) {
	if size < 1 {
		return nil, fmt.Errorf("ampi: size %d must be ≥ 1", size)
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
	if opts.Mode == ModeEvent && opts.Aggregate {
		return nil, fmt.Errorf("ampi: Aggregate is not supported in %q mode (flush-before-block needs a parkable thread)", ModeEvent)
	}
	if m.Sharded() && opts.Mode != ModeEvent {
		// ULT ranks block real goroutine stacks whose closures cannot
		// cross a process boundary; only continuation records can.
		return nil, fmt.Errorf("ampi: sharded machines support %q mode only", ModeEvent)
	}
	if opts.Aggregate {
		m.Network().EnableAggregation(opts.AggPolicy)
	}
	return &Job{
		m: m, opts: *opts, size: size,
		traffic: make(map[[2]int]float64),
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

// Start makes every rank runnable.
func (j *Job) Start() {
	if j.ev != nil {
		j.ev.start()
		return
	}
	for _, r := range j.ranks {
		r.th.Scheduler().Start(r.th)
	}
}

// Run starts the job and drives the machine to quiescence
// (deterministic single-goroutine mode). If the program parks at a
// Migrate gate, the driver services it — measure, plan, move, resume
// — and keeps driving until the program completes. At a full gate
// the machine is quiescent with zero in-flight messages, so moving
// ranks cannot reorder deliveries: per-rank results stay
// bit-identical with and without migration.
func (j *Job) Run() {
	j.Start()
	for {
		j.m.RunUntilQuiescent()
		if !j.gateReady() {
			return
		}
		j.serviceGate()
	}
}

// RunParallel starts the job and drives the machine with one
// goroutine per PE (the wall-clock mode), servicing Migrate gates
// between parallel phases exactly like Run.
func (j *Job) RunParallel() {
	j.Start()
	for {
		j.m.RunParallel(func() bool { return j.Done() || j.gateReady() })
		if !j.gateReady() {
			return
		}
		j.serviceGate()
	}
}

// gateSetStrategy records the gate's strategy (Migrate is collective:
// every rank names the same strategy, so last-write-wins is fine).
func (j *Job) gateSetStrategy(s loadbalance.Strategy) {
	j.gateMu.Lock()
	j.gateStrategy = s
	j.gateMu.Unlock()
}

// gateArrive registers one rank at the LB gate.
func (j *Job) gateArrive() {
	if j.m.Sharded() {
		// The gate counts arrivals against the full job size, but a
		// sharded worker only runs its local ranks — the gate would
		// never fill. Cross-process migration goes through the shard
		// record API (ShardExtract/ShardInstall) instead.
		panic("ampi: the Migrate gate is not supported in sharded runs; move ranks with ShardExtract/ShardInstall")
	}
	j.gateMu.Lock()
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

// serviceGate runs one LB step for a full gate and resumes the
// ranks. The machine is stopped (quiescent) when this runs.
func (j *Job) serviceGate() {
	j.gateMu.Lock()
	strategy := j.gateStrategy
	j.gateArrived = 0
	j.gateStrategy = nil
	j.gateMu.Unlock()
	moved, err := j.Rebalance(strategy)
	if err != nil {
		panic(fmt.Sprintf("ampi: LB gate: %v", err))
	}
	j.gateMu.Lock()
	j.lbMoved += moved
	j.gateMu.Unlock()
	if j.ev != nil {
		j.ev.resumeGate()
		return
	}
	for _, rk := range j.ranks {
		rk.th.Awaken()
	}
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
func (j *Job) Rank(r int) *Rank { return j.ranks[r] }

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
func (j *Job) Done() bool {
	if j.ev != nil {
		return j.ev.remaining.Load() == 0
	}
	for _, r := range j.ranks {
		if r.th.State() != converse.Exited {
			return false
		}
	}
	return true
}

// entity returns a rank's comm identity (its thread id, which the
// machine's migration path forwards automatically).
func (j *Job) entity(rank int) comm.EntityID {
	return comm.EntityID(j.ranks[rank].th.ID())
}

// ---------------------------------------------------------------
// Rank: the thread-style handle

// Rank returns the caller's rank number.
func (r *Rank) Rank() int { return r.rank }

// PE returns the processor the rank currently runs on.
func (r *Rank) PE() int { return r.ctx.PE().Index }

// Thread exposes the underlying migratable thread.
func (r *Rank) Thread() *converse.Thread { return r.th }

// Work models ns nanoseconds of local computation (PC.Work).
func (r *Rank) Work(ns float64) { r.pc.Work(ns) }

// Send is PC.Send with a bad tag or destination returned as an error.
func (r *Rank) Send(dest, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("ampi: Send tag %d must be ≥ 0", tag)
	}
	if dest < 0 || dest >= r.job.size {
		return fmt.Errorf("ampi: Send to rank %d of %d", dest, r.job.size)
	}
	r.pc.sendRaw(dest, tag, data)
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
	m := r.recv(src, tag)
	r.pc.consume(m)
	return m.Data, r.job.senderOf(m.From), nil
}

// Allreduce combines each rank's value with op ("sum", "max", "min")
// and returns the result on every rank: the Allreduce combinator's
// schedule, run on the rank's program context by the one collective
// executor (collRun.advance).
func (r *Rank) Allreduce(op string, v float64) (float64, error) {
	combine, err := combiner(op)
	if err != nil {
		return 0, err
	}
	run := r.pc.newRun(&collSite{name: "Allreduce", kind: collAllreduce, combine: combine})
	run.val = v
	run.advance(r.pc, true)
	return run.val, nil
}

// sendv is the ULT backend's send: an eager message stamped with the
// sender's predicted time vtime, charged to the simulating PE's clock.
func (r *Rank) sendv(dest, tag int, data []byte, vtime float64) error {
	if dest < 0 || dest >= r.job.size {
		return fmt.Errorf("ampi: Send to rank %d of %d", dest, r.job.size)
	}
	if tag >= 0 && dest != r.rank {
		// Application traffic feeds the communication graph the
		// comm-aware balancer consumes (collectives excluded).
		pair := [2]int{r.rank, dest}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		r.job.mu.Lock()
		r.job.traffic[pair] += float64(len(data)) + 64 // payload + envelope
		r.job.mu.Unlock()
	}
	pe := r.ctx.PE()
	if ovh := r.job.opts.MsgOverheadNs; ovh > 0 {
		pe.Clock.Advance(ovh)
	}
	msg := comm.NewMessage()
	msg.To, msg.From, msg.Tag = r.job.entity(dest), r.job.entity(r.rank), tag
	msg.SendTime, msg.VTime = pe.Clock.Now(), vtime
	msg.SetData(data)
	ep := r.job.m.Network().Endpoint(pe.Index)
	if r.job.opts.Aggregate && tag >= 0 {
		return ep.SendStream(msg)
	}
	return ep.Send(msg)
}

// flushStream pushes any coalesced messages buffered on the rank's
// current PE onto the wire (a no-op without Options.Aggregate). Called
// before every block and at exit so streamed traffic cannot deadlock:
// whenever every rank is parked, every buffer has been flushed.
func (r *Rank) flushStream() {
	if !r.job.opts.Aggregate {
		return
	}
	if err := r.job.m.Network().Endpoint(r.ctx.PE().Index).Flush(); err != nil {
		// AMPI never deregisters live ranks, so a flush error is a
		// runtime invariant violation, not an application condition.
		panic(fmt.Sprintf("ampi: stream flush: %v", err))
	}
}

// deliver is the machine's per-entity handler: mailbox append plus
// wakeup if the rank is blocked on a matching Recv.
func (r *Rank) deliver(_ int, msg *comm.Message) {
	r.mu.Lock()
	r.mbox = append(r.mbox, msg)
	wake := r.hasWait && r.matchesLocked(r.waiting, msg)
	if wake {
		r.hasWait = false
	}
	r.mu.Unlock()
	if wake {
		r.th.Awaken()
	}
}

func (r *Rank) matchesLocked(spec matchSpec, m *comm.Message) bool {
	return spec.matchesTag(m.Tag) && (spec.src == AnySource || r.job.entity(spec.src) == m.From)
}

// takeLocked removes and returns the oldest matching message.
func (r *Rank) takeLocked(spec matchSpec) *comm.Message {
	for i, m := range r.mbox {
		if r.matchesLocked(spec, m) {
			r.mbox = append(r.mbox[:i], r.mbox[i+1:]...)
			return m
		}
	}
	return nil
}

func (r *Rank) recv(src, tag int) *comm.Message {
	spec := matchSpec{src: src, tag: tag}
	for {
		r.mu.Lock()
		if m := r.takeLocked(spec); m != nil {
			r.mu.Unlock()
			// The receiver cannot proceed before the message's
			// arrival: synchronize the PE clock at consume time.
			pe := r.ctx.PE()
			pe.Clock.AdvanceTo(m.Arrival)
			if ovh := r.job.opts.MsgOverheadNs; ovh > 0 {
				pe.Clock.Advance(ovh)
			}
			return m
		}
		r.waiting, r.hasWait = spec, true
		r.mu.Unlock()
		// About to park: force out coalesced messages so a peer
		// waiting on them can run (explicit-flush-on-idle).
		r.flushStream()
		r.ctx.Suspend()
	}
}
