package ampi

// Continuation programs: the CPC idea ("compiling blocking threads to
// events through continuations") applied to AMPI ranks. A Program is
// an immutable tree of Proc combinators — Do/Seq/For/Recv/collectives
// — shared by every rank of a job, the way bigsim.stepBody is shared
// by both BigSim backends. What differs per rank is an operand read off
// the PC when a statement runs (RecvFrom, RecvEach, pc.Rank() in a Do),
// so a step body is built once and running it builds nothing. Programs
// are closed: NewProgram walks the whole tree once, For bodies
// included, into a statement table (numberSites), and what one
// execution accumulates lives where the runtime can see it — pc.Local,
// the frame stack, the collective runs — never in a closure the tree
// makes as it runs, so one record (shard.go) carries a rank parked
// anywhere to any PE of any process.
//
// Every rank, whichever backend Options.Mode selects, is one slot in a
// contiguous per-job store, interpreted by the one loop PC.exec over an
// explicit frame stack — the lambda-lifted continuation of
// Continuation-Passing C: a resume point is a flat record of
// (statement index, cursor) pairs, 8 bytes each, not a chain of
// closures. A blocking point leaves the stack where it is and exec
// returns. What differs is who re-enters it: a ModeULT rank's
// migratable user-level thread suspends and is woken, paying the
// platform's thread-switch curve per activation; a ModeEvent rank's PE
// loop re-enters it on delivery (event.go), paying the much cheaper
// EventDispatch curve.
//
// Because all communication, computation, and virtual-time accounting
// live in this shared layer, a program's predicted virtual time (VT)
// and its message counts are bit-identical across mode × PE count —
// the property TestCrossBackendEquivalence enforces. Only what the
// *simulating* machine is charged (PE clocks, wall time, memory)
// depends on the mode.

import (
	"fmt"
	"io"
	"math"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
	"migflow/internal/vmem"
)

// Proc is one statement of a continuation program. kind names the
// statement's kind in the program's shape (numberSites).
type Proc interface {
	kind() byte
}

// leaf is a statement other than Seq and For. step makes one move of
// the interpreter loop: it reports the statement done, or leaves the
// rank parked inside it, and the same step runs again when the rank is
// resumed. Seq and For have no step: the interpreter runs them from
// the program's statement table.
type leaf interface {
	Proc
	step(pc *PC, f *frame) (done bool)
}

// stmt is one entry of a program's statement table (Job.stmts), which
// numberSites fills in the walk it makes of the tree: a Seq or For
// lists the statements it runs, a leaf is stepped. A statement shared
// by several parents appears once only when it is a Seq; any other
// appears once per place the walk meets it.
type stmt struct {
	p    Proc
	leaf leaf // p, when it is a leaf; nil for a Seq or a For
	// kids are the entries a Seq runs at each position, or a For at each
	// iteration: For's body is called once per iteration, by the walk.
	kids []uint32
}

// frame is one entry of a rank's resume point: a statement that has
// started and not finished, by its index in the program's statement
// table, and how far into it the rank is.
type frame struct {
	at uint32
	// i is the cursor: Seq/For — index of the NEXT child (the running
	// one is i-1); RecvEach — index of the source being waited for;
	// Waitall — next request; Migrate — gate entered. A record ships
	// exactly these, one per frame (shard.go).
	i int32
}

// backend is what the shared layer needs from the flow-of-control
// mechanism behind a rank. Exactly two implementations exist: ultBE (a
// thread runs the slot) and *eventEngine (the owning PE's loop does).
// Sending, matching and the receive cost model are the slot's (Job.send,
// Job.recvLocked); what a backend adds is who holds the rank's lock,
// where the rank runs, and how its load is measured and its moves made.
type backend interface {
	// recv is Job.recvLocked under the rank's lock: an event activation
	// already holds it, a thread takes it. It never blocks: with nothing
	// to take the rank parks on (src, tag), recv returns nil and exec
	// returns false — the PE's loop re-enters an event rank after a
	// matching delivery, a thread rank suspends until one wakes it.
	recv(pc *PC, src, tag int) *comm.Message
	// work charges ns nanoseconds of computation to the simulating PE and
	// to the rank's measured load.
	work(pc *PC, ns float64)
	// pe reports which simulating PE the rank currently runs on —
	// placement-dependent by design (per-PE makespan accounting).
	pe(pc *PC) int
	// usestack models per-rank live frames: ULT ranks push and dirty
	// a frame of n bytes (which every later migration must carry);
	// event ranks have no stack, so it is a no-op — the asymmetry the
	// migration-cost comparison measures.
	usestack(pc *PC, n uint64)
	// loads appends each rank's (entity, PE, load) sample to buf, and
	// resetLoads starts the next measurement window.
	loads(buf []loadbalance.Item) []loadbalance.Item
	resetLoads()
	// commit makes one LB step's moves, in rank order, and returns how
	// many ranks moved.
	commit(moves []comm.RangeMove) (int, error)
}

// PC is one rank's program context: its identity, its predicted
// virtual time, and its resume point; its backend is the job's
// (Job.be). Program callbacks receive the PC and may call its
// Send/Work/Isend/Irecv methods; blocking is expressed only through
// Proc combinators, never by a callback that waits.
type PC struct {
	job  *Job
	rank int32 // newJobCommon bounds the size by math.MaxInt32

	// vt is the rank's predicted virtual time in nanoseconds — the
	// mode- and placement-independent clock of the *target* program,
	// advanced by Work, send overhead, and message arrival
	// constraints. It is deliberately distinct from the simulating PE
	// clocks, which depend on mode and rank placement.
	vt float64

	// Local is the rank's program-private state (halo buffers, loop
	// accumulators). The event engine frees it when the rank's program
	// completes, and an event rank that moves carries it through
	// Options.LocalPUP.
	Local any

	// colls lists the rank's collective runs, one per program-tree site
	// it has started (collRun). A move ships the active ones — site
	// number, cursor, accumulator — so an outstanding collective survives
	// migration between its start and wait halves. One pointer: the slot
	// does not grow with the number of sites.
	colls *collRun

	// stack is the rank's resume point: the statements it is inside,
	// outermost first, from its first activation to completion, 8 bytes
	// each. It is allocated once, at the program's depth (Job.depth), so
	// it never grows. A move ships its cursors and rebuilds it from the
	// statement table (shard.go). The array is the rank's carve of the
	// job's blocks (blocks.go).
	stack []frame
}

// start makes the program's root, statement 0, the rank's whole resume
// point, in the frame array the slot already has (an installed record
// that had not started) or in its carve of the job's blocks, sized to
// the program's depth.
func (pc *PC) start() {
	if cap(pc.stack) == 0 {
		pc.stack = pc.job.frameStack()
	}
	pc.stack = append(pc.stack[:0], frame{})
}

// exec is the interpreter: it runs the innermost frame until the
// program completes (true) or a step parks the rank (false), leaving
// the stack as the resume point for the next call, one per activation
// on either backend. A Seq or For frame pushes its next child from the
// statement table, or pops when it has none left; a leaf frame steps.
// Finishing with a collective started and never waited for is a program
// bug that would leave the peers hanging in theirs, so it panics by
// name.
func (pc *PC) exec() bool {
	stmts := pc.job.stmts
	for n := len(pc.stack); n > 0; n = len(pc.stack) {
		f := &pc.stack[n-1]
		st := &stmts[f.at]
		if st.leaf == nil {
			if int(f.i) < len(st.kids) {
				f.i++
				pc.stack = append(pc.stack, frame{at: st.kids[f.i-1]})
				continue
			}
		} else if !st.leaf.step(pc, f) {
			return false
		}
		pc.stack = pc.stack[:n-1]
	}
	if site := pc.outstanding(); site != nil {
		panic(fmt.Sprintf("ampi: rank %d finished with %s outstanding", pc.rank, site.name))
	}
	pc.stack, pc.colls = nil, nil
	return true
}

// parkedIn returns the innermost statement of the rank's resume point,
// or nil before the first activation and after completion.
func (pc *PC) parkedIn() Proc {
	if n := len(pc.stack); n > 0 {
		return pc.job.stmts[pc.stack[n-1].at].p
	}
	return nil
}

// atGate reports whether the rank is parked at an LB gate.
func (pc *PC) atGate() bool {
	_, ok := pc.parkedIn().(migrateProc)
	return ok
}

// Rank returns the rank number.
func (pc *PC) Rank() int { return int(pc.rank) }

// Size returns the job's rank count.
func (pc *PC) Size() int { return pc.job.size }

// VT returns the rank's predicted virtual time in nanoseconds.
func (pc *PC) VT() float64 { return pc.vt }

// PE returns the simulating PE the rank currently runs on. Unlike VT
// it is placement-dependent — it changes when the rank migrates —
// and exists precisely for per-PE accounting (a zone step charging
// its busy time to the processor that executed it).
func (pc *PC) PE() int { return pc.job.be.pe(pc) }

// UseStack models the rank holding n bytes of live stack frames from
// here on: ULT ranks really push and dirty the frame (so every later
// migration ships it); event ranks keep nothing — a continuation has
// no stack to carry. No effect on virtual time in either mode.
func (pc *PC) UseStack(n uint64) { pc.job.be.usestack(pc, n) }

// Globals returns the table through which a ULT rank reads and writes
// its privatized globals (Options.Globals). Their storage travels with
// the thread, so a value stored before a move is read back after it.
// An event rank has no thread and gets nil, as does a job without
// globals.
func (pc *PC) Globals() *swapglobal.GOT {
	if b, ok := pc.job.be.(ultBE); ok {
		return b.thread(pc).ctx.GlobalsGOT()
	}
	return nil
}

// Yield is MPI_Yield inside a statement: a ULT rank gives the other
// ranks on its PE the processor and stays runnable — a forced move
// (core.Machine.MigrateMany) may take it meanwhile, so PE can change
// across the call. An event rank runs a statement to completion; for
// it Yield does nothing.
func (pc *PC) Yield() {
	if b, ok := pc.job.be.(ultBE); ok {
		b.thread(pc).ctx.Yield()
	}
}

// Work models ns nanoseconds of local computation: it advances the
// rank's predicted time and charges the simulating PE.
func (pc *PC) Work(ns float64) {
	pc.vt += ns
	pc.job.be.work(pc, ns)
}

// Send sends data to rank dest with tag ≥ 0 and returns without waiting
// for the receiver. A payload of at most comm.InlineBytes is copied, so
// data is free again once Send returns; a longer one is lent to the
// receiver and must not be modified. Invalid destinations panic: a
// program is trusted code, not a fallible caller.
func (pc *PC) Send(dest, tag int, data []byte) {
	if tag < 0 {
		panic(fmt.Sprintf("ampi: program Send tag %d must be ≥ 0", tag))
	}
	mustFitTag("Send", tag)
	pc.sendRaw(dest, tag, data)
}

// sendRaw is Send without the user-tag restriction (collectives use
// negative internal tags). The mode-independent half of the cost
// model lives here: send overhead advances vt, and the message
// carries vt for the receiver's arrival constraint.
func (pc *PC) sendRaw(dest, tag int, data []byte) {
	if ovh := pc.job.opts.MsgOverheadNs; ovh > 0 {
		pc.vt += ovh
	}
	pc.job.send(pc, dest, tag, data)
}

// sendEdge is sendRaw along a collective tree edge: when a topology
// is configured, the edge's torus hops are charged into vt — never to
// a PE clock — and counted in the comm hop counter before the send.
// Hop distance is a pure function of the two ranks and the job
// options, keeping vt mode-, placement- and PE-count-invariant.
func (pc *PC) sendEdge(peer, tag int, data []byte) {
	if h := pc.job.edgeHops(pc.Rank(), peer); h > 0 {
		pc.job.m.Network().ChargeTopoHops(uint64(h))
		pc.vt += float64(h) * pc.job.opts.Topo.HopNs
	}
	pc.sendRaw(peer, tag, data)
}

// consume applies the mode-independent receive cost model: the
// receiver cannot proceed before the sender's virtual time plus one
// uniform network hop, then pays the per-message software overhead.
// The latency model is applied to the *logical* message regardless of
// where the two ranks physically live, which is what makes vt
// invariant across PE counts and placements.
func (pc *PC) consume(m *comm.Message) {
	lat := pc.job.m.Network().Latency()
	if at := m.VTime + lat.Cost(len(m.Data)); at > pc.vt {
		pc.vt = at
	}
	if ovh := pc.job.opts.MsgOverheadNs; ovh > 0 {
		pc.vt += ovh
	}
}

// Req is a nonblocking-operation handle inside a program (MPI_Request).
// Completed receives expose Data and From.
type Req struct {
	done   bool
	isRecv bool
	src    int
	tag    int

	Data []byte
	From int
}

// Done reports whether the request has completed.
func (q *Req) Done() bool { return q.done }

// Pup moves the request through p. A program whose Waitall reads its
// requests from PC.Local packs them with this in its LocalPUP, so the
// Waitall finds them again after the rank moves.
func (q *Req) Pup(p *pup.PUPer) error {
	return pupFields(p, &q.done, &q.isRecv, &q.src, &q.tag, &q.Data, &q.From)
}

// Isend sends eagerly and returns an already-completed request.
func (pc *PC) Isend(dest, tag int, data []byte) *Req {
	if tag < 0 {
		panic(fmt.Sprintf("ampi: program Isend tag %d must be ≥ 0", tag))
	}
	mustFitTag("Isend", tag)
	pc.sendRaw(dest, tag, data)
	return &Req{done: true}
}

// Irecv posts a nonblocking receive for (src, tag); matching happens
// at Waitall. (Real MPI matches at arrival; for the post-compute-wait
// pattern the semantics coincide.)
func (pc *PC) Irecv(src, tag int) *Req {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("ampi: program Irecv tag %d must be ≥ 0 or AnyTag", tag))
	}
	mustFitTag("Irecv", tag)
	return &Req{isRecv: true, src: src, tag: tag}
}

// ---------------------------------------------------------------
// Primitives

type doProc struct{ fn func(*PC) }

// Do wraps non-blocking code: it runs to completion (sends, work,
// local updates) and never suspends — the program analogue of an SDAG
// atomic block.
func Do(fn func(*PC)) Proc { return doProc{fn} }

func (doProc) kind() byte { return 'D' }

func (p doProc) step(pc *PC, _ *frame) bool {
	p.fn(pc)
	return true
}

type seqProc struct{ ps []Proc }

// Seq runs statements in order, each starting when its predecessor
// completes.
func Seq(ps ...Proc) Proc { return seqProc{ps} }

func (seqProc) kind() byte { return 'S' }

type forProc struct {
	n    int
	body func(i int) Proc
}

// For runs body(0) … body(n-1) in sequence — the outer iteration loop
// of a stencil program. The backedge is one cursor increment in the
// loop's frame, so deep iteration counts cost neither stack nor heap.
// body is called once per iteration when the program is built
// (NewProgram), never while it runs, so it returns statements built
// beforehand, and an iteration costs a 4-byte table entry.
func For(n int, body func(i int) Proc) Proc { return forProc{n, body} }

func (forProc) kind() byte { return 'F' }

type recvProc struct {
	src, tag int
	srcOf    func(*PC) int // RecvFrom: the source, per rank (nil = src)
	then     func(pc *PC, data []byte, from int)
}

// Recv blocks until a message from src (or AnySource) with tag (or
// AnyTag, which matches tags ≥ 0 only) arrives, applies the receive
// cost model, and runs then (if non-nil) with the payload and sender
// rank. data is valid until then returns: the message goes back to the
// runtime after it, so a then that keeps the bytes copies them.
func Recv(src, tag int, then func(pc *PC, data []byte, from int)) Proc {
	mustFitTag("Recv", tag)
	return recvProc{src: src, tag: tag, then: then}
}

// RecvFrom is Recv with the source a function of the rank, evaluated
// when the statement runs — so one statement, built once, serves every
// rank and every iteration (a ring's "my left neighbour"). src must be
// pure in the rank, its Local and the statement's tree position: a move
// evaluates it again on arrival to check where the rank waits. As with
// Recv, then's data is valid until then returns.
func RecvFrom(src func(*PC) int, tag int, then func(pc *PC, data []byte, from int)) Proc {
	mustFitTag("RecvFrom", tag)
	return recvProc{srcOf: src, tag: tag, then: then}
}

// mustFitTag refuses, where a program names a tag, one no match spec
// can hold: a receive statement when it is built, a send or Irecv when
// it runs.
func mustFitTag(what string, tag int) {
	if tag > math.MaxInt32 {
		panic(wideTag("program "+what, tag))
	}
}

// source resolves the statement's source for pc.
func (r recvProc) source(pc *PC) int {
	if r.srcOf != nil {
		return r.srcOf(pc)
	}
	return r.src
}

func (recvProc) kind() byte { return 'R' }

func (r recvProc) step(pc *PC, _ *frame) bool {
	m := pc.job.be.recv(pc, r.source(pc), r.tag)
	if m == nil {
		return false
	}
	pc.consume(m)
	if r.then != nil {
		r.then(pc, m.Data, pc.job.senderOf(m.From))
	}
	m.Free()
	return true
}

type recvEachProc struct {
	srcs func(*PC) []int
	tag  int
	then func(pc *PC, data []byte, from int)
}

// RecvEach receives one message with tag from each rank of srcs(pc), in
// that order (a source listed twice is received from twice), running
// then (if non-nil) after each — a zone's whole halo intake as one
// statement built once; a rank that takes no part returns no sources.
// srcs must be pure in the rank, its Local and the statement's tree
// position. It is read again on every resume and after a move, so the
// frame stays (statement, cursor); the slice it returns is only read.
// Each then's data is valid until that then returns.
func RecvEach(srcs func(*PC) []int, tag int, then func(pc *PC, data []byte, from int)) Proc {
	mustFitTag("RecvEach", tag)
	return recvEachProc{srcs: srcs, tag: tag, then: then}
}

func (recvEachProc) kind() byte { return 'E' }

func (r recvEachProc) step(pc *PC, f *frame) bool {
	for srcs := r.srcs(pc); int(f.i) < len(srcs); f.i++ {
		m := pc.job.be.recv(pc, srcs[f.i], r.tag)
		if m == nil {
			return false
		}
		pc.consume(m)
		if r.then != nil {
			r.then(pc, m.Data, pc.job.senderOf(m.From))
		}
		m.Free()
	}
	return true
}

type waitallProc struct{ reqs func(*PC) []*Req }

// Waitall completes every request returned by reqs, in order: pending
// receives block and fill their Data/From; nil or completed entries are
// skipped. reqs is read again on every resume and after a move, so it
// must return requests kept in Local (see Req.Pup), the same list each
// time until the Waitall completes.
func Waitall(reqs func(*PC) []*Req) Proc { return waitallProc{reqs} }

func (waitallProc) kind() byte { return 'W' }

func (wp waitallProc) step(pc *PC, f *frame) bool {
	for reqs := wp.reqs(pc); int(f.i) < len(reqs); f.i++ {
		q := reqs[f.i]
		if q == nil || q.done || !q.isRecv {
			continue
		}
		m := pc.job.be.recv(pc, q.src, q.tag)
		if m == nil {
			return false
		}
		pc.consume(m)
		q.done, q.Data, q.From = true, m.Data, pc.job.senderOf(m.From)
	}
	return true
}

// migrateProc is the job's one gate: an LB step (Migrate), or, with no
// strategy, a checkpoint written to w (Checkpoint).
type migrateProc struct {
	strategy loadbalance.Strategy
	w        io.Writer
}

// Migrate is the program form of MPI_Migrate: a collective
// load-balancing gate. EVERY rank must reach it (a program where
// some rank exits first deadlocks, as in MPI). When the last rank
// arrives the runtime — the Run/RunParallel driver, at quiescence —
// measures per-rank loads, plans with strategy, moves ULT ranks as
// threads and event ranks as continuation records through the same
// core.Machine.MigrateMany batch, and resumes every rank on
// its assigned PE. The gate sends no messages and never advances vt,
// so predicted time stays bit-identical whether or not anything
// moved.
func Migrate(strategy loadbalance.Strategy) Proc {
	if strategy == nil {
		panic("ampi: Migrate: nil strategy")
	}
	return migrateProc{strategy: strategy}
}

// Checkpoint is checkpointing as migration to disk (paper §3): a
// collective gate like Migrate, at which the runtime, instead of moving
// ranks, writes every rank's continuation record to w as one image
// (checkpoint.go) and resumes the ranks where they are. Restore builds
// the job again from the image, on a machine with any PE count. Only
// an in-process event job can take one: NewProgram refuses a ULT or
// sharded program holding a Checkpoint. w must not be nil.
func Checkpoint(w io.Writer) Proc { return migrateProc{w: w} }

func (migrateProc) kind() byte { return 'M' }

func (mp migrateProc) step(pc *PC, f *frame) bool {
	if f.i == 0 {
		// The rank parks here, its Migrate frame on top of its stack (the
		// record analogue of a thread suspending in MPI_Migrate), until
		// the runtime resumes it, possibly on another PE. A gate sends no
		// messages and never touches vt, so predicted time stays
		// bit-identical with and without migration.
		f.i = 1
		pc.job.gateArrive(mp)
		return false
	}
	return true // resumed after the gate's LB step or checkpoint
}

// Sendrecv is the halo-exchange primitive: an eager send followed by
// a blocking receive (deadlock-free for rings and pairs).
func Sendrecv(dest, sendTag int, data func(*PC) []byte, src, recvTag int, then func(pc *PC, data []byte, from int)) Proc {
	return Seq(
		Do(func(pc *PC) { pc.Send(dest, sendTag, data(pc)) }),
		Recv(src, recvTag, then),
	)
}

// ---------------------------------------------------------------
// Collectives
//
// Every collective runs a schedule derived from its family
// (collFamily) — per-source-matched edges, deterministic child order —
// so a reduction combines in the same order in every mode and on every
// PE count, keeping results (and therefore vt) bit-identical. CollFlat
// selects the paper-era flat topology: the same schedule over a
// one-level star, the root receiving in rank order. Scatter and
// Alltoall always use the star and charge no torus hops.

// Every collective executes a collective schedule (tree.go): a fixed
// per-rank sequence of tree-edge sends and receives. The blocking
// form is literally its nonblocking start half followed immediately
// by its wait half, which is what makes blocking and nonblocking
// collectives bit-identical in virtual time and results — the
// equivalence the CI race tests pin. The nonblocking (start, wait)
// pairs let a program put Work (or halo exchange) between the two
// halves, hiding the collective's latency under compute.
//
// Like MPI, collectives must complete in program order: the wait half
// must run before the same site starts again (enforced per rank), and
// no other collective of the same kind may run between a start and
// its wait — same-kind operations share tags, so an interloper could
// consume the in-flight contributions. Different kinds interleave
// freely.

// collSite is one collective site in the program tree: everything
// about the operation that is the same for every rank and every
// execution. begin loads the rank's contribution into a fresh run's
// accumulator; end (nil = nothing to deliver) hands the result to the
// program's then. An event job numbers its sites once (numberSites), so
// a record names a site by number, not by a pointer that means nothing
// in another process.
type collSite struct {
	name    string
	kind    collKind
	root    int
	combine func(a, b float64) float64
	begin   func(*PC, *collState)
	end     func(*PC, *collState)
}

// collRun is one rank's state at one site, found by site pointer on
// the rank's list (PC.colls). It is made by the site's first start and
// kept: the schedule is a pure function of (rank, site), so later
// executions reset the cursor and allocate nothing. What is the same
// for every rank — the kind, the combiner — is read through site.
type collRun struct {
	collState
	site   *collSite
	link   *collRun
	active bool // started, wait not yet complete
}

// program is what one walk of a program tree (numberSites) reads off it.
type program struct {
	// stmts is the statement table: the root is statement 0, and a frame
	// names a statement by its index.
	stmts []stmt
	// sites numbers the collective sites and siteNum inverts it: a record
	// names a site by number.
	sites   []*collSite
	siteNum map[*collSite]int
	// depth is the deepest frame stack a rank running the program holds,
	// the capacity its stack is allocated at.
	depth int
	// checkpoints reports a Checkpoint anywhere in the tree.
	checkpoints bool
	// shape fingerprints the whole tree for a checkpoint image's header.
	shape uint64
}

// numberSites walks prog once, depth first, and returns its statement
// table and what the walk reads off the tree. Collective sites are
// numbered by identity, in the order the walk meets their starts — the
// same numbers in every process that builds the same tree. depth is one
// frame per statement on the longest root-to-leaf path. The walk runs
// each For body once per iteration and a Seq shared by several parents
// once, giving the others its entry and its subtree's depth. shape is a
// 64-bit FNV-1a hash of each statement the walk meets, in walk order —
// its kind, a Seq's arity, a For's count, a shared Seq met again as
// such — which a checkpoint image names its program by.
func numberSites(prog Proc) program {
	g := program{siteNum: map[*collSite]int{}}
	type seqKey struct {
		first *Proc
		n     int
	}
	type seen struct {
		at    uint32
		depth int
	}
	seqs := map[seqKey]seen{}
	// FNV-1a from its offset basis: each statement's kind byte, then
	// the 8 bytes of its count.
	g.shape = 14695981039346656037
	mix := func(kind byte, n int) {
		g.shape = (g.shape ^ uint64(kind)) * 1099511628211
		for v, i := uint64(n), 0; i < 8; v, i = v>>8, i+1 {
			g.shape = (g.shape ^ (v & 0xff)) * 1099511628211
		}
	}
	// walk adds p's subtree to the table and returns p's entry and the
	// deepest stack from p's own frame down; kids does so for n children.
	var walk func(Proc) (uint32, int)
	kids := func(n int, child func(i int) Proc) ([]uint32, int) {
		ats, below := make([]uint32, n), 0
		for i := range ats {
			var d int
			ats[i], d = walk(child(i))
			below = max(below, d)
		}
		return ats, below
	}
	walk = func(p Proc) (uint32, int) {
		at, below, kind := uint32(len(g.stmts)), 0, p.kind()
		g.stmts = append(g.stmts, stmt{p: p})
		switch s := p.(type) {
		case seqProc:
			if len(s.ps) == 0 {
				mix(kind, 0)
				break
			}
			key := seqKey{&s.ps[0], len(s.ps)}
			if d, ok := seqs[key]; ok {
				g.stmts = g.stmts[:at]
				mix('s', len(s.ps))
				return d.at, d.depth
			}
			mix(kind, len(s.ps))
			seqs[key] = seen{at, 1} // a Seq reached again through itself adds nothing
			g.stmts[at].kids, below = kids(len(s.ps), func(i int) Proc { return s.ps[i] })
			seqs[key] = seen{at, below + 1}
		case forProc:
			if s.n > math.MaxInt32 {
				panic(fmt.Sprintf("ampi: For(%d): a cursor holds 32 bits", s.n))
			}
			mix(kind, s.n)
			g.stmts[at].kids, below = kids(max(s.n, 0), s.body)
		default:
			mix(kind, 0)
			g.stmts[at].leaf = p.(leaf)
			switch s := p.(type) {
			case collStartProc:
				if _, ok := g.siteNum[s.site]; !ok {
					g.siteNum[s.site] = len(g.sites)
					g.sites = append(g.sites, s.site)
				}
			case migrateProc:
				g.checkpoints = g.checkpoints || s.strategy == nil
			}
		}
		return at, below + 1
	}
	_, g.depth = walk(prog)
	return g
}

// collAt returns the rank's run at site, or nil before its first start.
func (pc *PC) collAt(site *collSite) *collRun {
	for run := pc.colls; run != nil; run = run.link {
		if run.site == site {
			return run
		}
	}
	return nil
}

// outstanding returns a site the rank has started and not waited for,
// or nil.
func (pc *PC) outstanding() *collSite {
	for run := pc.colls; run != nil; run = run.link {
		if run.active {
			return run.site
		}
	}
	return nil
}

// newRun makes the rank's state for site, out of the job's blocks: its
// family in the job's topology and the cursor at the start. A root
// outside the job is a program bug, so it panics by name.
func (pc *PC) newRun(site *collSite) *collRun {
	if site.root < 0 || site.root >= pc.Size() {
		panic(fmt.Sprintf("ampi: rank %d: %s root %d of %d", pc.rank, site.name, site.root, pc.Size()))
	}
	run := pc.job.carveRun()
	run.site = site
	run.parent, run.children = pc.job.family(site.kind, pc.rank, site.root)
	return run
}

// advance executes the schedule from the cursor and reports whether it
// reached the end: sends go out, receives park the flow one at a time
// — or, with block false (the start half), stop the walk at the first.
// It is the one collective executor: both backends run every
// combinator through it, and Rank.Allreduce runs its schedule to the
// end in one call.
func (run *collRun) advance(pc *PC, block bool) bool {
	for {
		a, ok := run.at(run.site.kind, run.next)
		if !ok {
			return true
		}
		if a.send {
			if collKinds[run.site.kind].direct {
				pc.sendRaw(a.peer, a.tag, run.payload(a))
			} else {
				pc.sendEdge(a.peer, a.tag, run.payload(a))
			}
		} else {
			if !block {
				return false
			}
			m := pc.job.be.recv(pc, a.peer, a.tag)
			if m == nil {
				return false
			}
			pc.consume(m)
			kept, err := run.absorb(a, m.Data, pc.Size())
			if err != nil {
				panic(err)
			}
			if !kept {
				m.Free()
			}
		}
		run.next++
	}
}

// collStartProc is a collective's start half: it loads the rank's
// contribution and fires the schedule's leading sends — with eager
// buffering the contribution is in flight before the statement
// completes.
type collStartProc struct{ site *collSite }

func (collStartProc) kind() byte { return 'C' }

func (sp collStartProc) step(pc *PC, _ *frame) bool {
	site := sp.site
	run := pc.collAt(site)
	if run == nil {
		run = pc.newRun(site)
		run.link, pc.colls = pc.colls, run
	} else if run.active {
		panic(fmt.Sprintf("ampi: rank %d: %s started again before its wait completed", pc.rank, site.name))
	}
	run.active, run.next = true, 0
	if site.begin != nil {
		site.begin(pc, &run.collState)
	}
	run.advance(pc, false)
	return true
}

// collWaitProc completes a started collective: remaining receives
// park the flow one at a time, dependent sends go out, and the site's
// end delivers the result. Progress is the run's cursor, not the
// frame's.
type collWaitProc struct{ site *collSite }

func (collWaitProc) kind() byte { return 'c' }

func (wp collWaitProc) step(pc *PC, _ *frame) bool {
	run := pc.collAt(wp.site)
	if run == nil || !run.active {
		panic(fmt.Sprintf("ampi: rank %d: wait for %s with no matching start", pc.rank, wp.site.name))
	}
	if !run.advance(pc, true) {
		return false
	}
	run.active = false
	if wp.site.end != nil {
		wp.site.end(pc, &run.collState)
	}
	run.dropPayloads() // the program's now
	return true
}

// dropPayloads lets go of what the run's accumulator holds for the
// program, keeping its collParts for the next execution.
func (run *collRun) dropPayloads() {
	run.data = nil
	if run.parts != nil {
		*run.parts = collParts{}
	}
}

// icoll is a site's (start, wait) pair; blocking is the two in sequence.
func icoll(site *collSite) (start, wait Proc) {
	return collStartProc{site}, collWaitProc{site}
}

func blocking(site *collSite) Proc {
	start, wait := icoll(site)
	return Seq(start, wait)
}

func barrierSite(name string) *collSite {
	return &collSite{name: name, kind: collBarrier}
}

func reduceSite(name string, kind collKind, root int, op string, val func(*PC) float64, then func(*PC, float64)) *collSite {
	site := &collSite{name: name, kind: kind, root: root, combine: mustCombiner(op),
		begin: func(pc *PC, st *collState) { st.val = val(pc) }}
	if then != nil {
		site.end = func(pc *PC, st *collState) {
			if kind == collAllreduce || st.parent < 0 {
				then(pc, st.val)
			}
		}
	}
	return site
}

func bcastSite(name string, root int, val func(*PC) []byte, then func(*PC, []byte)) *collSite {
	site := &collSite{name: name, kind: collBcast, root: root,
		begin: func(pc *PC, st *collState) {
			if st.parent < 0 {
				st.data = val(pc)
			}
		}}
	if then != nil {
		site.end = func(pc *PC, st *collState) { then(pc, st.data) }
	}
	return site
}

func gatherSite(name string, root int, val func(*PC) []byte, then func(*PC, [][]byte)) *collSite {
	site := &collSite{name: name, kind: collGather, root: root,
		begin: func(pc *PC, st *collState) {
			st.perRank().entries = []gatherEntry{{rank: pc.Rank(), data: val(pc)}}
		}}
	if then != nil {
		site.end = func(pc *PC, st *collState) {
			if st.parent < 0 {
				then(pc, st.gathered(pc.Size()))
			}
		}
	}
	return site
}

// Barrier blocks until every rank has entered it: arrivals combine up
// the topology, the release broadcasts down.
func Barrier() Proc { return blocking(barrierSite("Barrier")) }

// Ibarrier is the nonblocking Barrier: start fires the rank's arrival
// up the tree, wait blocks until the release comes down. Statements
// between the two run while other ranks are still arriving.
func Ibarrier() (start, wait Proc) { return icoll(barrierSite("Ibarrier")) }

// Reduce combines every rank's value (from val) at root with op
// ("sum", "max", "min"); then runs on root only.
func Reduce(root int, op string, val func(*PC) float64, then func(*PC, float64)) Proc {
	return blocking(reduceSite("Reduce", collReduce, root, op, val, then))
}

// Ireduce is the nonblocking Reduce: val is read at start, then runs
// (on root) at wait.
func Ireduce(root int, op string, val func(*PC) float64, then func(*PC, float64)) (start, wait Proc) {
	return icoll(reduceSite("Ireduce", collReduce, root, op, val, then))
}

// Allreduce combines every rank's value with op and delivers the
// result to then on every rank.
func Allreduce(op string, val func(*PC) float64, then func(*PC, float64)) Proc {
	return blocking(reduceSite("Allreduce", collAllreduce, 0, op, val, then))
}

// Iallreduce is the nonblocking Allreduce: val is read at start (a
// leaf's contribution is on the wire before start completes), then
// runs with the combined result at wait — so Work placed between the
// two halves overlaps the reduction's tree latency.
func Iallreduce(op string, val func(*PC) float64, then func(*PC, float64)) (start, wait Proc) {
	return icoll(reduceSite("Iallreduce", collAllreduce, 0, op, val, then))
}

// Bcast broadcasts root's data (from val, called on root only) down
// the topology; then runs on every rank with the received copy.
func Bcast(root int, val func(*PC) []byte, then func(*PC, []byte)) Proc {
	return blocking(bcastSite("Bcast", root, val, then))
}

// Ibcast is the nonblocking Bcast: root's sends fire at start, every
// rank's then runs at wait.
func Ibcast(root int, val func(*PC) []byte, then func(*PC, []byte)) (start, wait Proc) {
	return icoll(bcastSite("Ibcast", root, val, then))
}

// Gather collects every rank's data (from val) at root, indexed by
// rank; then runs on root only. Subtrees pack their entries into one
// message per edge.
func Gather(root int, val func(*PC) []byte, then func(*PC, [][]byte)) Proc {
	return blocking(gatherSite("Gather", root, val, then))
}

// Igather is the nonblocking Gather: leaf contributions fire at
// start, the root's then runs at wait.
func Igather(root int, val func(*PC) []byte, then func(*PC, [][]byte)) (start, wait Proc) {
	return icoll(gatherSite("Igather", root, val, then))
}

// Scatter distributes chunks (from val, called on root only; one
// chunk per rank) from root; then runs on every rank with its chunk.
func Scatter(root int, val func(*PC) [][]byte, then func(*PC, []byte)) Proc {
	site := &collSite{name: "Scatter", kind: collScatter, root: root,
		begin: func(pc *PC, st *collState) {
			if st.parent < 0 {
				chunks := mustChunks("Scatter", pc, val(pc))
				st.perRank().chunks, st.data = chunks, chunks[root]
			}
		}}
	if then != nil {
		site.end = func(pc *PC, st *collState) { then(pc, st.data) }
	}
	return blocking(site)
}

// Alltoall exchanges chunks[i] (from val; one per rank) with every
// rank i; then runs with the received chunks indexed by sender.
// Receives match each peer specifically, in rank order, so no payload
// prefix is needed and the exchange is deterministic.
func Alltoall(val func(*PC) [][]byte, then func(*PC, [][]byte)) Proc {
	site := &collSite{name: "Alltoall", kind: collAlltoall,
		begin: func(pc *PC, st *collState) {
			st.perRank().chunks = append([][]byte(nil), mustChunks("Alltoall", pc, val(pc))...)
		}}
	if then != nil {
		site.end = func(pc *PC, st *collState) { then(pc, st.parts.chunks) }
	}
	return blocking(site)
}

// mustChunks checks that a rank's chunk list has one entry per rank.
func mustChunks(name string, pc *PC, chunks [][]byte) [][]byte {
	if len(chunks) != pc.Size() {
		panic(fmt.Sprintf("ampi: %s: %d chunks for %d ranks", name, len(chunks), pc.Size()))
	}
	return chunks
}

func mustCombiner(op string) func(a, b float64) float64 {
	combine, err := combiner(op)
	if err != nil {
		panic(err)
	}
	return combine
}

// ---------------------------------------------------------------
// Job plumbing

// NewProgram creates size ranks on machine m, each running the shared
// continuation program prog under the mode selected by opts.Mode,
// placed round-robin (or in blocks) over the PEs: "AMPI requires the
// number of AMPI migratable threads to be much larger than the actual
// number of processors". In ULT mode every rank is a migratable thread
// interpreting prog; in event mode ranks are contiguous state structs
// dispatched by their PEs' loops (event.go).
func NewProgram(m *core.Machine, size int, opts Options, prog Proc) (*Job, error) {
	if prog == nil {
		return nil, fmt.Errorf("ampi: NewProgram: nil program")
	}
	j, err := newJobCommon(m, size, &opts)
	if err != nil {
		return nil, err
	}
	j.program = numberSites(prog)
	if j.checkpoints && (j.opts.Mode != ModeEvent || m.Sharded()) {
		// A thread's stack image does not ride in a record, and a sharded
		// job's gate never fills in one process.
		return nil, fmt.Errorf("ampi: a program with a Checkpoint runs only as an in-process %q job", ModeEvent)
	}
	if j.opts.Mode == ModeEvent {
		if j.ev, err = newEventEngine(j); err != nil {
			return nil, err
		}
		j.be = j.ev
		return j, nil
	}
	j.be = ultBE{j}
	j.newSlots()
	j.remaining.Store(int64(size))
	j.ranks = make([]Rank, size)
	j.rankOf = make(map[comm.EntityID]int, size)
	for r := range j.ranks {
		rk := &j.ranks[r]
		rk.job, rk.rank = j, r
		pe := m.PE(placePE(r, size, m.NumPEs(), j.opts.BlockPlacement))
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy:  j.opts.Strategy,
			StackSize: j.opts.StackSize,
			Globals:   j.opts.Globals,
		}, rk.run)
		if err != nil {
			return nil, fmt.Errorf("ampi: creating rank %d: %w", r, err)
		}
		rk.th = th
		j.rankOf[comm.EntityID(th.ID())] = r
		if err := m.RegisterEntity(comm.EntityID(th.ID()), pe.Index, rk.deliver); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// ultBE runs each rank's slot on its thread (Job.ranks[pc.rank]): a
// receive with nothing to take parks the slot and the thread suspends,
// so the scheduler charges the usual thread-switch curve per activation.
type ultBE struct{ job *Job }

// thread returns the thread rank behind pc.
func (ultBE) thread(pc *PC) *Rank { return &pc.job.ranks[pc.rank] }

func (ultBE) recv(pc *PC, src, tag int) *comm.Message {
	s := pc.job.slotOf(pc)
	s.mu.Lock()
	defer s.mu.Unlock()
	return pc.job.recvLocked(pc, src, tag)
}

func (b ultBE) work(pc *PC, ns float64) { b.thread(pc).ctx.Work(ns) }

func (b ultBE) pe(pc *PC) int { return b.thread(pc).ctx.PE().Index }

func (b ultBE) usestack(pc *PC, n uint64) {
	if n == 0 {
		return
	}
	ctx := b.thread(pc).ctx
	frame, err := ctx.PushFrame(n)
	if err != nil {
		panic(fmt.Sprintf("ampi: rank %d UseStack(%d): %v", pc.rank, n, err))
	}
	// Dirty one word per page so the frame is live data the stack
	// strategy must actually move, not just reserved address space.
	space := ctx.Space()
	for off := uint64(0); off+8 <= n; off += vmem.PageSize {
		if err := space.WriteUint64(frame.Add(off), off); err != nil {
			panic(fmt.Sprintf("ampi: rank %d UseStack dirty: %v", pc.rank, err))
		}
	}
}

// VT returns rank r's predicted virtual time in nanoseconds. It is
// bit-identical across modes and PE counts for the same program and job
// options.
func (j *Job) VT(r int) float64 {
	if store := j.store(); store != nil {
		s := &store[r]
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.pc.vt
	}
	return j.vts[r]
}

// PredictedNs returns the program's predicted parallel completion
// time: the maximum rank VT.
func (j *Job) PredictedNs() float64 {
	var max float64
	for r := 0; r < j.size; r++ {
		if vt := j.VT(r); vt > max {
			max = vt
		}
	}
	return max
}
