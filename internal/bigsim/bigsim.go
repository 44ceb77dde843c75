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
	"errors"
	"fmt"
	"sync"

	"migflow/internal/comm"
	"migflow/internal/platform"
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

// tproc is one simulated target processor owning one torus cell: in
// event mode the whole flow, a plain state struct whose step body the
// owning PE runs inline; in ULT mode the state a parked goroutine
// steps. A ULT target's hand-off channel lives beside it in
// Simulator.handoff, which event mode never allocates; its target
// clock lives in Simulator.tprev/tnext.
type tproc struct {
	id    int32
	simPE int32

	// nbrs caches the six torus neighbour ids (+x,-x,+y,-y,+z,-z),
	// computed once in New instead of redoing coords/modulo math on
	// every step.
	nbrs [6]int32
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

// peClock is one simulating PE's virtual clock and its step's message
// and envelope counts. Only the goroutine driving the PE writes them —
// begin and summarize run between the PEs' turns under both drivers,
// and a ULT target steps only while its PE's driver waits on the
// target's hand-off channel — so they are plain fields, not atomics.
// It fills one 64-byte line, which keeps PEs driven in parallel off
// each other's.
type peClock struct {
	now                     float64 // nanoseconds
	start                   float64 // now when begin started the step
	cross, intra, env, coal int64
	tmax                    float64 // the largest target clock of the PE's cells
	c0, c1                  int32   // the PE's cells are store[c0:c1]
}

// Simulator runs the target machine, driving one slab [lo, hi) of the
// simulating PEs: all of them for New, one worker's share for
// NewShard. Every driver steps it with local (begin, runSlab,
// summarize) and stats; a shard merges its peers' summaries between.
//
// Every word a step writes belongs to one PE's driver: its clock, its
// cells' next target clocks, its aggregation rows. Other PEs only read
// the previous step's target clocks, which nobody writes during a
// step, so no word is atomic.
type Simulator struct {
	cfg   Config
	store []tproc // all targets, block-mapped: PE pe's are store[first(pe):first(pe+1)]
	// clocks[pe] is PE pe's clock and counters, written by its driver only.
	clocks []peClock
	lat    comm.LatencyModel
	prof   *platform.Profile

	lo, hi int // the slab of simulating PEs this simulator drives

	// handoff[i] is target i's goroutine hand-off channel in ULT mode:
	// a resume is a send, the park after one step the reply. Nil in
	// event mode. Not a converse coroutine: iter.Pull costs 13
	// allocations per flow against 4 here (DESIGN.md, "Intrusive ready
	// queue, coroutine switch").
	handoff []chan struct{}
	done    bool // set by Close, which then resumes every target to end it

	// steps counts completed timesteps; tAfter is the latest target
	// clock after the last, where the next step's prediction starts.
	steps  int
	tAfter float64

	// dispatch[pe] is the per-activation flow-dispatch cost on
	// simulating PE pe — UThreadSwitch.At(flows) in ULT mode,
	// EventDispatch.At(flows) in event mode. The resident flow count
	// is fixed after New, so this is precomputed once.
	dispatch []float64
	// workNs is the per-step force-computation cost of one cell;
	// sendNs the sender's injection overhead of one cross-PE ghost.
	workNs, sendNs float64
	// ghostNs is one ghost's latency on the target network.
	ghostNs float64

	// recv[pe] is the handling time PE pe owes at a step's start for
	// the previous step's per-message cross-PE ghosts. The torus fixes
	// how many arrive, so New sums them once, in the same sequential
	// adds of one constant a per-ghost charge would make; zero when
	// aggregating.
	recv []float64

	// Target-time prediction: tprev[i] is target i's clock — the
	// *target* machine's virtual time, which BigSim exists to predict —
	// after the previous step, tnext[i] after this one. A cell's step
	// cannot start before its six neighbours' ghosts arrive on the
	// target network, so it reads their tprev and writes its own tnext;
	// begin swaps the two. Its clock advances by target work and waits
	// on arrivals only, independently of how target processors are
	// packed onto simulating PEs.
	tprev, tnext []float64

	// Streaming aggregation; the rows are nil unless Config.Aggregate.
	// aggCount[src][dst] counts ghosts coalesced into the (src,dst)
	// envelope this step; aggPend[src][dst] is the receiver handling
	// the envelope charges at the next step's start. Each row is
	// touched only by the goroutine driving PE src (plain, not
	// atomic), and begin drains aggPend in (src,dst) order so the
	// receiver's float adds are deterministic under every driver.
	aggCount [][]int64
	aggPend  [][]float64
}

// errNegativeCharge is a Config whose costs would move a clock
// backwards (or to NaN): New refuses it, so the per-PE clocks' adds
// need no check.
var errNegativeCharge = errors.New("bigsim: negative charge")

// checkCharges refuses a resolved Config any of whose per-step costs
// is negative or NaN.
func checkCharges(cfg Config) error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"AtomsPerCell", float64(cfg.AtomsPerCell)},
		{"WorkPerAtomNs", cfg.WorkPerAtomNs},
		{"GhostBytes", float64(cfg.GhostBytes)},
		{"Latency.Alpha", cfg.Latency.Alpha},
		{"Latency.BetaPerByte", cfg.Latency.BetaPerByte},
		{"TargetWorkNs", cfg.TargetWorkNs},
		{"TargetLatency.Alpha", cfg.TargetLatency.Alpha},
		{"TargetLatency.BetaPerByte", cfg.TargetLatency.BetaPerByte},
	} {
		if !(c.v >= 0) {
			return fmt.Errorf("%w: %s is %v", errNegativeCharge, c.name, c.v)
		}
	}
	return nil
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
	if err := checkCharges(cfg); err != nil {
		return nil, err
	}
	t := cfg.X * cfg.Y * cfg.Z
	if t < cfg.SimPEs {
		return nil, fmt.Errorf("bigsim: %d target processors on %d simulating PEs", t, cfg.SimPEs)
	}
	ghost := cfg.Latency.Cost(cfg.GhostBytes)
	s := &Simulator{
		cfg:      cfg,
		store:    make([]tproc, t),
		clocks:   make([]peClock, cfg.SimPEs),
		lat:      cfg.Latency,
		prof:     cfg.Platform,
		hi:       cfg.SimPEs,
		dispatch: make([]float64, cfg.SimPEs),
		workNs:   float64(cfg.AtomsPerCell) * cfg.WorkPerAtomNs,
		sendNs:   ghost * sendOverheadFrac,
		ghostNs:  cfg.TargetLatency.Cost(cfg.GhostBytes),
		recv:     make([]float64, cfg.SimPEs),
		tprev:    make([]float64, t),
		tnext:    make([]float64, t),
		aggCount: make([][]int64, cfg.SimPEs),
		aggPend:  make([][]float64, cfg.SimPEs),
	}
	dispatch := s.prof.UThreadSwitch
	if cfg.Mode == ModeEvent {
		dispatch = s.prof.EventDispatch
	}
	for pe := range s.clocks {
		s.dispatch[pe] = dispatch.At(s.first(pe+1) - s.first(pe))
		if !(s.dispatch[pe] >= 0) {
			return nil, fmt.Errorf("%w: %s's dispatch cost is %v on PE %d", errNegativeCharge, s.prof.Name, s.dispatch[pe], pe)
		}
		if cfg.Aggregate {
			s.aggCount[pe] = make([]int64, cfg.SimPEs)
			s.aggPend[pe] = make([]float64, cfg.SimPEs)
		}
		c0, c1 := s.first(pe), s.first(pe+1)
		s.clocks[pe].c0, s.clocks[pe].c1 = int32(c0), int32(c1)
		// Each cell gets one ghost from each neighbour; those from
		// outside the PE are the cross-PE ghosts it handles per step.
		inbound := 0
		for i := c0; i < c1; i++ {
			p := &s.store[i]
			p.id, p.simPE = int32(i), int32(pe)
			for d, dir := range torusDirs {
				nb := s.neighbor(i, dir[0], dir[1], dir[2])
				p.nbrs[d] = int32(nb)
				if nb < c0 || nb >= c1 {
					inbound++
				}
			}
		}
		if !cfg.Aggregate {
			for ; inbound > 0; inbound-- {
				s.recv[pe] += ghost * recvOverheadFrac
			}
		}
	}
	if cfg.Mode == ModeULT {
		// ULT mode: park one goroutine per target processor.
		s.handoff = make([]chan struct{}, t)
		for i := range s.store {
			s.handoff[i] = make(chan struct{})
			go s.run(&s.store[i], s.handoff[i])
		}
	}
	return s, nil
}

// first returns the first target of simulating PE pe under the block
// mapping, which puts target i on PE ⌊i·SimPEs/T⌋; first(SimPEs) is T.
func (s *Simulator) first(pe int) int {
	return (pe*len(s.store) + s.cfg.SimPEs - 1) / s.cfg.SimPEs
}

// NumTargets returns the simulated processor count.
func (s *Simulator) NumTargets() int { return len(s.store) }

// coords maps a target id to torus coordinates.
func (s *Simulator) coords(id int) (x, y, z int) {
	x = id % s.cfg.X
	y = (id / s.cfg.X) % s.cfg.Y
	z = id / (s.cfg.X * s.cfg.Y)
	return
}

// torusDirs are the six ghost-exchange directions, in the fixed
// (+x,-x,+y,-y,+z,-z) order both backends send in.
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
// clock, ghost sends — shared verbatim by both backends, so the
// target-machine prediction and message counts cannot depend on the
// mode. Only the flow-dispatch cost charged to the simulating PE's
// clock (s.dispatch, fixed in New) differs between backends.
func (s *Simulator) stepBody(p *tproc) {
	clock := &s.clocks[p.simPE]
	// Flow dispatch cost: ULT switch or event dispatch.
	clock.now += s.dispatch[p.simPE]
	// Force computation over the cell's atoms.
	clock.now += s.workNs
	// Target-machine prediction: this step cannot begin before last
	// step's ghosts arrived on the target network, and costs the
	// target processor its per-cell work. Every ghost pays the same
	// latency and rounding is monotone, so the latest arrival is the
	// latest neighbour clock plus one latency.
	t := s.tprev[p.id]
	if s.steps > 0 {
		arr := s.tprev[p.nbrs[0]]
		for _, nb := range p.nbrs[1:] {
			if tn := s.tprev[nb]; tn > arr {
				arr = tn
			}
		}
		if arr += s.ghostNs; arr > t {
			t = arr
		}
	}
	t += s.cfg.TargetWorkNs
	s.tnext[p.id] = t
	if t > clock.tmax {
		clock.tmax = t
	}
	// Ghost exchange with the six torus neighbours: the sender's share
	// of each message's cost. The receiver's is in s.recv.
	for _, nb := range p.nbrs {
		if nb >= clock.c0 && nb < clock.c1 {
			// Intra-PE: a queue operation, no wire.
			clock.now += 120
			clock.intra++
			continue
		}
		clock.cross++
		if s.cfg.Aggregate {
			// Coalesce into the (src,dst) envelope; costs are charged
			// when the envelope flushes at the end of this PE's turn.
			s.aggCount[p.simPE][s.store[nb].simPE]++
			continue
		}
		// Cross-PE, per-message: the sender pays injection overhead
		// now. (Wire latency itself overlaps with the step's
		// computation.)
		clock.now += s.sendNs
	}
}

// run is a ULT-mode target thread's life: each resume on c executes
// one timestep and parks by answering on c — the MD flow of control
// as a real (goroutine) flow with a live stack and two channel
// handoffs per activation. A resume after Close set done ends it.
func (s *Simulator) run(p *tproc, c chan struct{}) {
	for range c {
		if s.done {
			return
		}
		s.stepBody(p)
		c <- struct{}{}
	}
}

// flushAgg sends PE pe's coalesced envelopes: one per destination PE
// with buffered ghosts, costing one Alpha plus the summed payload
// bytes. The sender's injection overhead lands on its clock now; the
// receiver's handling share is parked in aggPend for the next
// step's start.
func (s *Simulator) flushAgg(pe int) {
	clock := &s.clocks[pe]
	for dpe, n := range s.aggCount[pe] {
		if n == 0 {
			continue
		}
		cost := s.lat.Cost(int(n) * s.cfg.GhostBytes)
		clock.now += cost * sendOverheadFrac
		s.aggPend[pe][dpe] += cost * recvOverheadFrac
		clock.env++
		clock.coal += n
		s.aggCount[pe][dpe] = 0
	}
}

// begin starts a step on the slab — target-clock buffers swapped,
// counters reset, each clock's start noted, inbound handling charged.
func (s *Simulator) begin() {
	s.tprev, s.tnext = s.tnext, s.tprev
	// Every PE's inbound ghost handling is charged before any PE runs:
	// last step's cross-PE messages are paid at this step's start,
	// independent of the order (or concurrency) in which PEs execute.
	for pe := s.lo; pe < s.hi; pe++ {
		c := &s.clocks[pe]
		c.cross, c.intra, c.env, c.coal = 0, 0, 0, 0
		c.start = c.now
		if s.steps > 0 {
			c.now += s.recv[pe]
		}
	}
	// Same, for last step's coalesced envelopes — drained in fixed
	// (src,dst) order so receiver clocks advance identically under
	// every driver.
	for src := range s.aggPend {
		for dst, pend := range s.aggPend[src] {
			if pend != 0 {
				s.clocks[dst].now += pend
				s.aggPend[src][dst] = 0
			}
		}
	}
}

// runPE runs one simulating PE's resident target flows serially: in
// ULT mode by handing control to each parked goroutine in turn, in
// event mode by dispatching each flow's step body inline — the
// event-driven scheduler loop, with no control transfer at all.
func (s *Simulator) runPE(pe int) {
	c0, c1 := s.first(pe), s.first(pe+1)
	if s.handoff == nil {
		for i := c0; i < c1; i++ {
			s.stepBody(&s.store[i])
		}
	} else {
		for _, c := range s.handoff[c0:c1] {
			c <- struct{}{}
			<-c
		}
	}
	if s.cfg.Aggregate {
		s.flushAgg(pe)
	}
}

// runSlab runs every PE of the slab from this goroutine, or one
// goroutine per PE: non-exclusive (isomalloc-style) threads "allow the
// straightforward exploitation of SMP machines".
func (s *Simulator) runSlab(parallel bool) {
	if !parallel {
		for pe := s.lo; pe < s.hi; pe++ {
			s.runPE(pe)
		}
		return
	}
	var wg sync.WaitGroup
	for pe := s.lo; pe < s.hi; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			s.runPE(pe)
		}(pe)
	}
	wg.Wait()
}

// summary is one slab's share of a step's StepStats: the header of
// every step frame a shard sends.
type summary struct {
	step                    int
	cross, intra, env, coal int64
	maxDelta, tAfter        float64
}

// summarize returns the slab's summary of the step begin started.
func (s *Simulator) summarize() summary {
	sum := summary{step: s.steps}
	for pe := s.lo; pe < s.hi; pe++ {
		c := &s.clocks[pe]
		sum.cross += c.cross
		sum.intra += c.intra
		sum.env += c.env
		sum.coal += c.coal
		sum.maxDelta = max(sum.maxDelta, c.now-c.start)
		sum.tAfter = max(sum.tAfter, c.tmax)
	}
	return sum
}

// merge folds a peer slab's summary into sum.
func (sum *summary) merge(peer summary) {
	sum.cross += peer.cross
	sum.intra += peer.intra
	sum.env += peer.env
	sum.coal += peer.coal
	sum.maxDelta = max(sum.maxDelta, peer.maxDelta)
	sum.tAfter = max(sum.tAfter, peer.tAfter)
}

// stats ends the step with the whole machine's summary.
func (s *Simulator) stats(sum summary) StepStats {
	s.steps++
	st := StepStats{
		Step:              s.steps,
		TimeNs:            sum.maxDelta,
		PredictedTargetNs: sum.tAfter - s.tAfter,
		CrossPEMessages:   int(sum.cross),
		IntraPEMessages:   int(sum.intra),
		Envelopes:         int(sum.env),
		CoalescedGhosts:   int(sum.coal),
	}
	s.tAfter = sum.tAfter
	return st
}

// local runs the slab's part of one step and returns its summary.
func (s *Simulator) local(parallel bool) summary {
	s.begin()
	s.runSlab(parallel)
	return s.summarize()
}

// Step advances the whole target machine one MD timestep, driving the
// simulating PEs from this goroutine (deterministic).
func (s *Simulator) Step() StepStats { return s.stats(s.local(false)) }

// StepParallel is Step with every simulating PE driven by its own
// goroutine; every virtual result is identical to Step's.
func (s *Simulator) StepParallel() StepStats { return s.stats(s.local(true)) }

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
	s.done = true
	for _, c := range s.handoff {
		c <- struct{}{}
	}
}

// MeanStepTime averages TimeNs over stats (skipping the warm-up first
// step, which has no inbound ghosts).
func MeanStepTime(stats []StepStats) float64 {
	switch len(stats) {
	case 0:
		return 0
	case 1:
		return stats[0].TimeNs
	}
	var sum float64
	for _, st := range stats[1:] {
		sum += st.TimeNs
	}
	return sum / float64(len(stats)-1)
}
