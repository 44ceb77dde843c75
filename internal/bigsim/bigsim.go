// Package bigsim is a BigSim-like parallel machine simulator (§4.4):
// it predicts the per-timestep behaviour of a molecular-dynamics-style
// application running on a huge *target* machine (e.g. 200,000
// processors) using a much smaller *simulating* machine — by giving
// every simulated target processor its own flow of control, exactly
// the many-flows-per-processor scenario the paper motivates ("50,000
// separate target processors ... clearly not feasible using either
// processes or kernel threads").
//
// Each target processor owns one patch of an X×Y×Z torus of atom
// cells. Per timestep it computes forces (modeled work proportional
// to its atoms) and exchanges ghost atoms with its six torus
// neighbours. The simulating machine's virtual clocks record each
// simulating PE's serial execution of its resident target flows,
// so "simulation time per step" is max-over-PEs of (compute + flow
// dispatch + message handling) — the quantity Figure 11 plots
// against the number of simulating processors.
//
// Two execution backends realize the paper's flows comparison
// end-to-end (Config.Mode):
//
//   - "ult" (default): one user-level thread — here a parked
//     goroutine — per target processor. Each activation costs the
//     platform's UThreadSwitch curve plus two real channel handoffs,
//     and each flow keeps a stack alive.
//   - "event": each target processor is a plain state struct whose
//     per-step body the owning simulating PE's loop runs inline — a
//     message-driven object in the Charm++ sense. No goroutine, no
//     channels, no stack; each activation costs the (much cheaper)
//     EventDispatch curve. This is what lets the simulator reach the
//     paper's 200,000-target scale in modest memory.
//
// Both backends share one step-body implementation, so the predicted
// target-machine time and all logical message counts are bit-identical
// across modes — only the simulating machine's cost (and real wall
// clock/memory) differ.
package bigsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"migflow/internal/comm"
	"migflow/internal/platform"
	"migflow/internal/simclock"
)

// Config sizes the simulation.
type Config struct {
	// Target torus dimensions: X*Y*Z target processors.
	X, Y, Z int
	// SimPEs is the number of simulating processors.
	SimPEs int
	// AtomsPerCell scales per-step compute work.
	AtomsPerCell int
	// WorkPerAtomNs is modeled force-computation cost per atom per
	// step.
	WorkPerAtomNs float64
	// GhostBytes is the per-neighbour ghost message size.
	GhostBytes int
	// Latency models the simulating machine's interconnect; zero
	// value selects comm.DefaultLatency.
	Latency comm.LatencyModel
	// Platform supplies flow dispatch costs; nil selects Alpha ES45
	// (LeMieux, the machine of Figure 11).
	Platform *platform.Profile

	// Mode selects the execution backend: ModeULT ("ult", the
	// default; the zero value "" selects it) runs one parked goroutine
	// per target processor charging Platform.UThreadSwitch per
	// activation, ModeEvent ("event") runs each target processor's
	// step body inline on the owning simulating PE's loop charging
	// Platform.EventDispatch. Any other string is rejected by New.
	Mode string

	// Aggregate coalesces each simulating PE's cross-PE ghost traffic
	// per destination PE per step (TRAM-style streaming aggregation):
	// one envelope of n·GhostBytes replaces n individual messages, so
	// the simulating machine pays one Alpha plus the summed per-byte
	// cost per (src,dst) PE pair instead of n Alphas. Only the
	// simulating-machine cost model changes — the target-machine
	// prediction stays per-message and is bit-identical either way.
	Aggregate bool

	// Target machine model — what BigSim *predicts*. TargetWorkNs is
	// the per-cell compute time per step on one target processor;
	// TargetLatency is the target interconnect. Zero values select a
	// Blue-Gene-like node: 3 µs of work per cell, 5 µs + 1 ns/byte
	// links.
	TargetWorkNs  float64
	TargetLatency comm.LatencyModel
}

// Execution backends for Config.Mode.
const (
	// ModeULT gives every target processor a user-level thread (a
	// parked goroutine): real stacks, real handoffs, UThreadSwitch
	// dispatch cost — the paper's heavier flow.
	ModeULT = "ult"
	// ModeEvent runs every target processor as a scheduler-dispatched
	// event object: no goroutine, no channels, EventDispatch cost —
	// the paper's cheapest flow, and the only one that reaches
	// 200,000 targets in modest memory.
	ModeEvent = "event"
)

// DefaultConfig returns a small but representative configuration.
func DefaultConfig() Config {
	return Config{
		X: 20, Y: 20, Z: 10, SimPEs: 4,
		AtomsPerCell: 200, WorkPerAtomNs: 25,
		GhostBytes: 2048,
	}
}

// tproc is one simulated target processor owning one torus cell. In
// ULT mode it is the state of a parked goroutine (resume/parked are
// its handoff channels); in event mode it is the whole flow — a plain
// state struct whose step body the owning PE runs inline. The
// hand-off stays on channels although converse threads moved to a
// coroutine switch: a target flow is activated only a few dozen times,
// and iter.Pull costs 13 allocations to create against 5 for two
// channels and a goroutine (DESIGN.md, "Intrusive ready queue,
// coroutine switch").
type tproc struct {
	id     int32
	simPE  int32
	resume chan struct{} // nil in event mode
	parked chan struct{} // nil in event mode
	steps  int
	done   bool

	// nbrs caches the six torus neighbour ids (+x,-x,+y,-y,+z,-z),
	// computed once in New instead of redoing coords/modulo math on
	// every post of every step.
	nbrs [6]int32

	// tclock is the *target* machine's virtual time on this target
	// processor — the quantity BigSim exists to predict. It advances
	// by target work and waits on target message arrivals,
	// independently of how target processors are packed onto
	// simulating PEs.
	tclock float64
}

// StepStats reports one simulated timestep.
type StepStats struct {
	Step int
	// TimeNs is the simulation time for the step: the maximum over
	// simulating PEs of their virtual execution time (Figure 11's
	// y-axis).
	TimeNs float64
	// PredictedTargetNs is the *predicted target machine* time for
	// the step — BigSim's output. It must be identical no matter how
	// many simulating PEs run the simulation.
	PredictedTargetNs float64
	// Messages crossed between simulating PEs this step.
	CrossPEMessages int
	// IntraPEMessages stayed within one simulating PE.
	IntraPEMessages int
	// Envelopes is the number of coalesced cross-PE envelopes sent
	// this step (0 unless Config.Aggregate).
	Envelopes int
	// CoalescedGhosts is the number of ghost messages those envelopes
	// carried (== CrossPEMessages when aggregating).
	CoalescedGhosts int
}

// Fractions of the wire cost charged on the simulating machine: the
// sender pays injection overhead immediately; the receiver pays
// handling time at the start of its next step. (Wire latency itself
// overlaps with the step's computation.)
const (
	sendOverheadFrac = 0.1
	recvOverheadFrac = 0.15
)

// Simulator runs the target machine.
type Simulator struct {
	cfg    Config
	event  bool    // Mode == ModeEvent
	store  []tproc // all tprocs, one contiguous allocation
	procs  []*tproc
	byPE   [][]*tproc
	clocks []*simclock.Clock
	lat    comm.LatencyModel
	prof   *platform.Profile

	// dispatch[pe] is the per-activation flow-dispatch cost on
	// simulating PE pe — UThreadSwitch.At(flows) in ULT mode,
	// EventDispatch.At(flows) in event mode. The resident flow count
	// is fixed after New, so this is precomputed once.
	dispatch []float64
	// workNs is the per-step force-computation cost of one cell.
	workNs float64

	// mail[i] counts ghosts delivered to target proc i for the next
	// step (contents abstracted: MD forces are modeled work). Atomic:
	// StepParallel posts from all simulating PEs concurrently.
	mail []atomic.Int64

	// recvPending[pe] accumulates message-handling time (float64
	// bits) each simulating PE owes at the start of its next step.
	recvPending []atomic.Uint64

	// Target-time prediction: ghost arrival times (target clock,
	// float64 bits) for the current and next step, double-buffered so
	// a step's posts constrain only the *next* step.
	arrNow  []atomic.Uint64
	arrNext []atomic.Uint64

	stepCross, stepIntra atomic.Int64

	// Streaming aggregation (Config.Aggregate). aggCount[src][dst]
	// counts ghosts coalesced into the (src,dst) envelope this step;
	// aggPend[src][dst] is the receiver handling the envelope charges
	// at the next step's start. Each row is touched only by the
	// goroutine driving PE src (plain, not atomic), and the prologue
	// drains aggPend in (src,dst) order so the receiver's float adds
	// are deterministic under both drivers.
	aggCount [][]int64
	aggPend  [][]float64

	stepEnvelopes, stepCoalesced atomic.Int64
}

// atomicMaxFloat raises a (float64-bits) atomic to at least v.
func atomicMaxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicAddFloat adds v to a float64-bits atomic.
func atomicAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// New builds the simulator: T = X*Y*Z target flows block-mapped
// onto SimPEs simulating processors.
func New(cfg Config) (*Simulator, error) {
	if cfg.X < 1 || cfg.Y < 1 || cfg.Z < 1 {
		return nil, fmt.Errorf("bigsim: bad torus %dx%dx%d", cfg.X, cfg.Y, cfg.Z)
	}
	if cfg.SimPEs < 1 {
		return nil, fmt.Errorf("bigsim: SimPEs %d must be ≥ 1", cfg.SimPEs)
	}
	switch cfg.Mode {
	case "", ModeULT:
		cfg.Mode = ModeULT
	case ModeEvent:
	default:
		return nil, fmt.Errorf("bigsim: unknown Mode %q (want %q or %q; empty selects %q)",
			cfg.Mode, ModeULT, ModeEvent, ModeULT)
	}
	if cfg.Latency == (comm.LatencyModel{}) {
		cfg.Latency = comm.DefaultLatency
	}
	if cfg.Platform == nil {
		cfg.Platform = platform.AlphaES45()
	}
	if cfg.TargetWorkNs == 0 {
		cfg.TargetWorkNs = 3000
	}
	if cfg.TargetLatency == (comm.LatencyModel{}) {
		cfg.TargetLatency = comm.LatencyModel{Alpha: 5000, BetaPerByte: 1}
	}
	t := cfg.X * cfg.Y * cfg.Z
	if t < cfg.SimPEs {
		return nil, fmt.Errorf("bigsim: %d target processors on %d simulating PEs", t, cfg.SimPEs)
	}
	s := &Simulator{
		cfg:         cfg,
		event:       cfg.Mode == ModeEvent,
		store:       make([]tproc, t),
		procs:       make([]*tproc, 0, t),
		byPE:        make([][]*tproc, cfg.SimPEs),
		clocks:      make([]*simclock.Clock, cfg.SimPEs),
		lat:         cfg.Latency,
		prof:        cfg.Platform,
		dispatch:    make([]float64, cfg.SimPEs),
		workNs:      float64(cfg.AtomsPerCell) * cfg.WorkPerAtomNs,
		mail:        make([]atomic.Int64, t),
		recvPending: make([]atomic.Uint64, cfg.SimPEs),
		arrNow:      make([]atomic.Uint64, t),
		arrNext:     make([]atomic.Uint64, t),
	}
	for pe := range s.clocks {
		s.clocks[pe] = simclock.New()
	}
	if cfg.Aggregate {
		s.aggCount = make([][]int64, cfg.SimPEs)
		s.aggPend = make([][]float64, cfg.SimPEs)
		for pe := range s.aggCount {
			s.aggCount[pe] = make([]int64, cfg.SimPEs)
			s.aggPend[pe] = make([]float64, cfg.SimPEs)
		}
	}
	for i := 0; i < t; i++ {
		// Block mapping: contiguous slabs of the torus per PE.
		pe := i * cfg.SimPEs / t
		p := &s.store[i]
		p.id, p.simPE = int32(i), int32(pe)
		for d, dir := range torusDirs {
			p.nbrs[d] = int32(s.neighbor(i, dir[0], dir[1], dir[2]))
		}
		s.procs = append(s.procs, p)
		s.byPE[pe] = append(s.byPE[pe], p)
	}
	for pe := range s.byPE {
		flows := len(s.byPE[pe])
		if s.event {
			s.dispatch[pe] = s.prof.EventDispatch.At(flows)
		} else {
			s.dispatch[pe] = s.prof.UThreadSwitch.At(flows)
		}
	}
	if !s.event {
		// ULT mode: park one goroutine per target processor.
		for _, p := range s.procs {
			p.resume = make(chan struct{})
			p.parked = make(chan struct{})
			go s.run(p)
		}
	}
	return s, nil
}

// NumTargets returns the simulated processor count.
func (s *Simulator) NumTargets() int { return len(s.procs) }

// Mode returns the resolved execution backend ("ult" or "event").
func (s *Simulator) Mode() string { return s.cfg.Mode }

// coords maps a target id to torus coordinates.
func (s *Simulator) coords(id int) (x, y, z int) {
	x = id % s.cfg.X
	y = (id / s.cfg.X) % s.cfg.Y
	z = id / (s.cfg.X * s.cfg.Y)
	return
}

// torusDirs are the six ghost-exchange directions, in the fixed
// (+x,-x,+y,-y,+z,-z) order both backends post in.
var torusDirs = [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// neighbor returns the torus neighbour of id along (dx,dy,dz).
func (s *Simulator) neighbor(id, dx, dy, dz int) int {
	x, y, z := s.coords(id)
	x = (x + dx + s.cfg.X) % s.cfg.X
	y = (y + dy + s.cfg.Y) % s.cfg.Y
	z = (z + dz + s.cfg.Z) % s.cfg.Z
	return x + s.cfg.X*(y+s.cfg.Y*z)
}

// stepBody is one target processor's MD timestep — compute, target
// clock, ghost posts — shared verbatim by both backends, so the
// target-machine prediction and message counts cannot depend on the
// mode. Only the flow-dispatch cost charged to the simulating PE's
// clock (s.dispatch, fixed in New) differs between backends.
func (s *Simulator) stepBody(p *tproc) {
	clock := s.clocks[p.simPE]
	// Flow dispatch cost: ULT switch or event dispatch.
	clock.Advance(s.dispatch[p.simPE])
	// Force computation over the cell's atoms.
	clock.Advance(s.workNs)
	// Target-machine prediction: this step cannot begin before
	// last step's ghosts arrived on the target network, and costs
	// the target processor its per-cell work.
	if arr := math.Float64frombits(s.arrNow[p.id].Load()); arr > p.tclock {
		p.tclock = arr
	}
	p.tclock += s.cfg.TargetWorkNs
	// Ghost exchange with the six torus neighbours (precomputed ids).
	for _, nb := range p.nbrs {
		s.post(p, nb)
	}
	p.steps++
}

// run is a ULT-mode target thread's life: each resume executes one
// timestep and parks — the MD flow of control as a real (goroutine)
// flow with a live stack and two channel handoffs per activation.
func (s *Simulator) run(p *tproc) {
	for {
		<-p.resume
		if p.done {
			p.parked <- struct{}{}
			return
		}
		s.stepBody(p)
		p.parked <- struct{}{}
	}
}

// post records a ghost message from p to target proc dst and charges
// send/receive costs.
func (s *Simulator) post(p *tproc, dst int32) {
	s.mail[dst].Add(1)
	// Target-network arrival constrains dst's NEXT step on the
	// target machine (always over the target network: every cell is
	// its own target processor).
	atomicMaxFloat(&s.arrNext[dst], p.tclock+s.cfg.TargetLatency.Cost(s.cfg.GhostBytes))
	dpe := s.store[dst].simPE
	if dpe == p.simPE {
		// Intra-PE: a queue operation, no wire.
		s.clocks[p.simPE].Advance(120)
		s.stepIntra.Add(1)
		return
	}
	s.stepCross.Add(1)
	if s.cfg.Aggregate {
		// Coalesce into the (src,dst) envelope; costs are charged when
		// the envelope flushes at the end of this PE's turn.
		s.aggCount[p.simPE][dpe]++
		return
	}
	// Cross-PE, per-message: the sender pays injection overhead now;
	// the receiver pays handling time at the start of its next step.
	// (Wire latency itself overlaps with the step's computation.)
	cost := s.lat.Cost(s.cfg.GhostBytes)
	s.clocks[p.simPE].Advance(cost * sendOverheadFrac)
	atomicAddFloat(&s.recvPending[dpe], cost*recvOverheadFrac)
}

// flushAgg sends PE pe's coalesced envelopes: one per destination PE
// with buffered ghosts, costing one Alpha plus the summed payload
// bytes. The sender's injection overhead lands on its clock now; the
// receiver's handling share is parked in aggPend for the next
// prologue.
func (s *Simulator) flushAgg(pe int) {
	for dpe, n := range s.aggCount[pe] {
		if n == 0 {
			continue
		}
		cost := s.lat.Cost(int(n) * s.cfg.GhostBytes)
		s.clocks[pe].Advance(cost * sendOverheadFrac)
		s.aggPend[pe][dpe] += cost * recvOverheadFrac
		s.stepEnvelopes.Add(1)
		s.stepCoalesced.Add(n)
		s.aggCount[pe][dpe] = 0
	}
}

// stepPrologue resets per-step state and returns the pre-step clock
// and target-time marks.
func (s *Simulator) stepPrologue() (before []float64, tBefore float64) {
	s.stepCross.Store(0)
	s.stepIntra.Store(0)
	s.stepEnvelopes.Store(0)
	s.stepCoalesced.Store(0)
	before = make([]float64, len(s.clocks))
	for pe, c := range s.clocks {
		before[pe] = c.Now()
	}
	// Validate the previous step's exchange completed: every cell has
	// its six ghosts (except before the first step).
	if s.procs[0].steps > 0 {
		for i := range s.mail {
			if n := s.mail[i].Load(); n != 6 {
				panic(fmt.Sprintf("bigsim: cell %d has %d ghosts, want 6", i, n))
			}
			s.mail[i].Store(0)
		}
	}
	// Rotate the target-arrival buffers: last step's posts constrain
	// this step.
	s.arrNow, s.arrNext = s.arrNext, s.arrNow
	for i := range s.arrNext {
		s.arrNext[i].Store(0)
	}
	for _, p := range s.procs {
		if p.tclock > tBefore {
			tBefore = p.tclock
		}
	}
	// Drain every PE's inbound ghost handling before any PE runs:
	// last step's cross-PE messages are charged at this step's start,
	// independent of the order (or concurrency) in which PEs execute.
	for pe := range s.recvPending {
		s.clocks[pe].Advance(math.Float64frombits(s.recvPending[pe].Swap(0)))
	}
	// Same, for last step's coalesced envelopes — drained in fixed
	// (src,dst) order so receiver clocks advance identically under the
	// serial and parallel drivers.
	for src := range s.aggPend {
		for dst, pend := range s.aggPend[src] {
			if pend != 0 {
				s.clocks[dst].Advance(pend)
				s.aggPend[src][dst] = 0
			}
		}
	}
	return before, tBefore
}

// runPE runs one simulating PE's resident target flows serially: in
// ULT mode by handing control to each parked goroutine in turn, in
// event mode by dispatching each flow's step body inline — the
// event-driven scheduler loop, with no control transfer at all.
func (s *Simulator) runPE(pe int) {
	if s.event {
		for _, p := range s.byPE[pe] {
			s.stepBody(p)
		}
	} else {
		for _, p := range s.byPE[pe] {
			p.resume <- struct{}{}
			<-p.parked
		}
	}
	if s.cfg.Aggregate {
		s.flushAgg(pe)
	}
}

func (s *Simulator) stepEpilogue(before []float64, tBefore float64) StepStats {
	var maxDelta float64
	for pe, c := range s.clocks {
		if d := c.Now() - before[pe]; d > maxDelta {
			maxDelta = d
		}
	}
	var tAfter float64
	for _, p := range s.procs {
		if p.tclock > tAfter {
			tAfter = p.tclock
		}
	}
	return StepStats{
		Step:              s.procs[0].steps,
		TimeNs:            maxDelta,
		PredictedTargetNs: tAfter - tBefore,
		CrossPEMessages:   int(s.stepCross.Load()),
		IntraPEMessages:   int(s.stepIntra.Load()),
		Envelopes:         int(s.stepEnvelopes.Load()),
		CoalescedGhosts:   int(s.stepCoalesced.Load()),
	}
}

// Step advances the whole target machine one MD timestep, driving the
// simulating PEs from this goroutine (deterministic).
func (s *Simulator) Step() StepStats {
	before, tBefore := s.stepPrologue()
	for pe := range s.byPE {
		s.runPE(pe)
	}
	return s.stepEpilogue(before, tBefore)
}

// StepParallel advances one timestep with every simulating PE driven
// by its own goroutine — real SMP execution of the simulation, which
// non-exclusive (isomalloc-style) threads permit: "multiple threads
// can run simultaneously, which allows the straightforward
// exploitation of SMP machines". Virtual results, including the
// target-time prediction, are identical to Step.
func (s *Simulator) StepParallel() StepStats {
	before, tBefore := s.stepPrologue()
	var wg sync.WaitGroup
	for pe := range s.byPE {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			s.runPE(pe)
		}(pe)
	}
	wg.Wait()
	return s.stepEpilogue(before, tBefore)
}

// Run executes steps timesteps and returns per-step stats.
func (s *Simulator) Run(steps int) []StepStats {
	out := make([]StepStats, 0, steps)
	for i := 0; i < steps; i++ {
		out = append(out, s.Step())
	}
	return out
}

// RunParallel executes steps timesteps with the parallel driver.
func (s *Simulator) RunParallel(steps int) []StepStats {
	out := make([]StepStats, 0, steps)
	for i := 0; i < steps; i++ {
		out = append(out, s.StepParallel())
	}
	return out
}

// Close terminates the target flows (a no-op in event mode, which
// has no goroutines to unwind).
func (s *Simulator) Close() {
	if s.event {
		return
	}
	for _, p := range s.procs {
		p.done = true
		p.resume <- struct{}{}
		<-p.parked
	}
}

// MeanStepTime averages TimeNs over stats (skipping the warm-up first
// step, which has no inbound ghosts).
func MeanStepTime(stats []StepStats) float64 {
	if len(stats) <= 1 {
		if len(stats) == 1 {
			return stats[0].TimeNs
		}
		return 0
	}
	var sum float64
	for _, st := range stats[1:] {
		sum += st.TimeNs
	}
	return sum / float64(len(stats)-1)
}
