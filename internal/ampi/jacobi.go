package ampi

// A 1-D Jacobi relaxation expressed as a continuation Program — the
// workload the mode comparison (and the million-rank headline run)
// uses. Each rank holds one cell, exchanges halo values with its ring
// neighbours every iteration, relaxes, and optionally joins a
// residual Allreduce — the paper's §4.5 stencil shape reduced to its
// communication skeleton. One shared Proc tree serves both modes, so
// predicted time and message counts cannot diverge between them.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/pup"
	"migflow/internal/vmem"
)

// Halo tags (user tag space).
const (
	tagHaloLeft  = 0 // sent toward the left neighbour
	tagHaloRight = 1 // sent toward the right neighbour
)

// JacobiConfig sizes one Jacobi run.
type JacobiConfig struct {
	Ranks int
	Iters int
	// PEs is the simulating-processor count (RunJacobi builds its own
	// machine); default 4.
	PEs int
	// Mode is ampi.ModeULT or ampi.ModeEvent ("" = ULT).
	Mode string

	// HaloBytes is the halo payload size (≥ 8; default 8 — one
	// float64 cell).
	HaloBytes int
	// WorkNs models the per-iteration relaxation compute (default
	// 1000).
	WorkNs float64
	// WorkSkew makes per-rank compute uneven: rank r works
	// WorkNs·(1 + WorkSkew·r/(Ranks-1)) per iteration. Deterministic
	// per rank, so VT stays placement-invariant; it exists to give a
	// load balancer something to fix.
	WorkSkew float64
	// ReduceEvery joins a "max" residual Allreduce every k iterations
	// (0 = never).
	ReduceEvery int
	// Overlap turns each iteration split-phase: halos go out first,
	// the relaxation work runs while they are in flight, and only then
	// are the neighbour halos consumed — so exchange latency hides
	// under compute instead of adding to it. The residual Allreduce
	// pipelines too (Iallreduce): iteration j starts the reduction and
	// iteration j+1 collects it under its own work, so the global
	// residual lags one reduce period. Cell values and residuals are
	// identical to the blocking schedule; only predicted time drops.
	Overlap bool

	// Collectives selects the collective topology (default CollTree;
	// CollTopoTree follows Topo's torus/PE-group hierarchy).
	Collectives CollAlgo
	// Topo is the torus/PE-group shape for hop accounting and
	// CollTopoTree (zero value = topology-blind).
	Topo Topology

	// MigrateAt inserts one collective LB gate (Migrate) after
	// iteration MigrateAt (1-based; 0 = never). The gate measures
	// per-rank loads, plans with LB, and moves ranks — threads in ULT
	// mode, continuation records in event mode.
	MigrateAt int
	// LB is the gate's strategy (default loadbalance.GreedyLB when
	// MigrateAt > 0).
	LB loadbalance.Strategy

	// BlockPlacement maps contiguous rank blocks per PE (so ring
	// neighbours are usually co-resident) instead of round-robin.
	BlockPlacement bool
	// Strategy is the ULT stack-migration technique (§3.4):
	// migrate.StackCopy/Isomalloc/MemoryAlias. Nil uses the runtime
	// default; ignored in event mode, where ranks move as records.
	Strategy converse.StackStrategy
	// StackSize is the per-rank stack in ULT mode (default 16 KiB —
	// the program needs no real frames, but every ULT rank pays for
	// one).
	StackSize uint64
	// StackUse makes each ULT rank push and dirty this many bytes of
	// live frames at startup (pc.UseStack) — the payload every later
	// thread migration must carry. Event ranks ignore it: a
	// continuation record has no stack. Must leave headroom below
	// StackSize.
	StackUse uint64
	// MsgOverheadNs is Options.MsgOverheadNs.
	MsgOverheadNs float64

	// Observe, when set, runs at the very end of each rank's program
	// with the rank's final cell state — how the cross-process
	// equivalence harness captures per-rank results without keeping
	// Local alive past completion. It runs in whatever process the
	// rank finishes in.
	Observe func(rank int, cell JacobiCell) `json:"-"`
}

// JacobiCell is one rank's final state as seen by Observe.
type JacobiCell struct {
	X      float64 // the cell value
	Resid  float64 // |Δx| of the last relaxation
	Global float64 // last Allreduce result (zero if ReduceEvery = 0)
}

func (c *JacobiConfig) defaults() error {
	if c.Ranks < 1 || c.Iters < 1 {
		return fmt.Errorf("ampi: Jacobi needs ≥ 1 rank and ≥ 1 iteration (got %d, %d)", c.Ranks, c.Iters)
	}
	if c.PEs == 0 {
		c.PEs = 4
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 8
	}
	if c.HaloBytes < 8 {
		return fmt.Errorf("ampi: Jacobi HaloBytes %d must be ≥ 8", c.HaloBytes)
	}
	if c.WorkNs == 0 {
		c.WorkNs = 1000
	}
	if c.StackSize == 0 {
		c.StackSize = 16 << 10
	}
	if c.MigrateAt < 0 || c.MigrateAt > c.Iters {
		return fmt.Errorf("ampi: Jacobi MigrateAt %d must be in [0, Iters]", c.MigrateAt)
	}
	if c.MigrateAt > 0 && c.LB == nil {
		c.LB = loadbalance.GreedyLB{}
	}
	return nil
}

// jacobiState is one rank's program-private state.
type jacobiState struct {
	x           float64 // the cell
	left, right float64 // received halos
	resid       float64 // |Δx| of the last relaxation
	global      float64 // last Allreduce result
	// halo is where a halo of at most comm.InlineBytes is packed: the
	// send copies it into the message, so one buffer serves every send.
	halo [comm.InlineBytes]byte
}

// JacobiProgram builds the shared program. Every statement is built
// here, once: the few per-iteration variants of the step body (with or
// without the residual reduction, its pipelined wait, the LB gate) are
// laid out per iteration in steps, and the ring neighbours are RecvFrom
// operands read off the rank — so a rank running a step builds nothing.
func JacobiProgram(cfg JacobiConfig) Proc {
	// A longer halo is lent to its receiver, so it needs a fresh buffer
	// per send.
	pack := func(st *jacobiState) []byte {
		var b []byte
		if cfg.HaloBytes <= comm.InlineBytes {
			b = st.halo[:cfg.HaloBytes]
		} else {
			b = make([]byte, cfg.HaloBytes)
		}
		binary.LittleEndian.PutUint64(b, math.Float64bits(st.x))
		return b
	}
	workOf := func(pc *PC) float64 {
		if cfg.WorkSkew == 0 || cfg.Ranks < 2 {
			return cfg.WorkNs
		}
		return cfg.WorkNs * (1 + cfg.WorkSkew*float64(pc.Rank())/float64(cfg.Ranks-1))
	}
	resid := func(pc *PC) float64 { return pc.Local.(*jacobiState).resid }
	setGlobal := func(pc *PC, v float64) { pc.Local.(*jacobiState).global = v }
	// One residual reduction site, shared by every rank and iteration.
	// In overlap mode it is pipelined: the reducing iteration starts it
	// after relaxing, the next iteration collects it under its own work
	// (or the epilogue does, when the last iteration is the reducing
	// one) — at most one reduction is ever outstanding.
	var allreduce, arStart, arWait Proc
	if cfg.ReduceEvery > 0 {
		if cfg.Overlap {
			arStart, arWait = Iallreduce("max", resid, setGlobal)
		} else {
			allreduce = Allreduce("max", resid, setGlobal)
		}
	}
	sendHalos := Do(func(pc *PC) {
		n := pc.Size()
		st := pc.Local.(*jacobiState)
		pc.Send((pc.Rank()-1+n)%n, tagHaloLeft, pack(st))
		pc.Send((pc.Rank()+1)%n, tagHaloRight, pack(st))
	})
	// The message my right neighbour sent "toward the left" is mine,
	// and symmetrically for the left.
	recvRight := RecvFrom(func(pc *PC) int { return (pc.Rank() + 1) % pc.Size() }, tagHaloLeft,
		func(pc *PC, data []byte, _ int) { pc.Local.(*jacobiState).right = f64(data) })
	recvLeft := RecvFrom(func(pc *PC) int { n := pc.Size(); return (pc.Rank() - 1 + n) % n }, tagHaloRight,
		func(pc *PC, data []byte, _ int) { pc.Local.(*jacobiState).left = f64(data) })
	relax := func(pc *PC) {
		st := pc.Local.(*jacobiState)
		next := (st.left + st.x + st.right) / 3
		st.resid = math.Abs(next - st.x)
		st.x = next
	}
	work := Do(func(pc *PC) { pc.Work(workOf(pc)) })
	relaxThenWork := Do(func(pc *PC) {
		relax(pc)
		pc.Work(workOf(pc))
	})
	type variant struct{ collect, reduce, gate bool }
	built := map[variant]Proc{}
	steps := make([]Proc, cfg.Iters)
	for i := range steps {
		v := variant{
			collect: cfg.Overlap && cfg.ReduceEvery > 0 && i > 0 && i%cfg.ReduceEvery == 0,
			reduce:  cfg.ReduceEvery > 0 && (i+1)%cfg.ReduceEvery == 0,
			gate:    cfg.MigrateAt > 0 && i+1 == cfg.MigrateAt,
		}
		if built[v] == nil {
			var ps []Proc
			if cfg.Overlap {
				// Split-phase: halos fly while this iteration's work
				// runs; the previous iteration's reduction (if any)
				// completes under that work too.
				ps = append(ps, sendHalos, work)
				if v.collect {
					ps = append(ps, arWait)
				}
				ps = append(ps, recvRight, recvLeft, Do(relax))
				if v.reduce {
					ps = append(ps, arStart)
				}
			} else {
				ps = append(ps, sendHalos, recvRight, recvLeft, relaxThenWork)
				if v.reduce {
					ps = append(ps, allreduce)
				}
			}
			if v.gate {
				ps = append(ps, Migrate(cfg.LB))
			}
			built[v] = Seq(ps...)
		}
		steps[i] = built[v]
	}
	body := []Proc{
		Do(func(pc *PC) {
			// Deterministic per-rank initial condition.
			pc.Local = &jacobiState{x: float64(pc.Rank()%97) / 97}
			pc.UseStack(cfg.StackUse)
		}),
		For(cfg.Iters, func(i int) Proc { return steps[i] }),
	}
	if cfg.Overlap && cfg.ReduceEvery > 0 && cfg.Iters%cfg.ReduceEvery == 0 {
		// The last iteration started a reduction; collect it.
		body = append(body, arWait)
	}
	if cfg.Observe != nil {
		body = append(body, Do(func(pc *PC) {
			st := pc.Local.(*jacobiState)
			cfg.Observe(pc.Rank(), JacobiCell{X: st.x, Resid: st.resid, Global: st.global})
		}))
	}
	return Seq(body...)
}

// jacobiLocalPUP serializes jacobiState into a moving rank's record
// (Options.LocalPUP).
func jacobiLocalPUP(p *pup.PUPer, local any) (any, error) {
	st, _ := local.(*jacobiState)
	if st == nil {
		st = &jacobiState{}
	}
	return st, pupFields(p, &st.x, &st.left, &st.right, &st.resid, &st.global)
}

// JacobiResult reports one run.
type JacobiResult struct {
	PredictedNs float64 // max rank VT — mode- and PE-count-invariant
	Msgs        uint64  // network messages sent
	WallNs      float64 // real elapsed time of the whole run
	StepWallNs  float64 // WallNs / Iters
	Moved       int     // ranks moved by the Migrate gate (MigrateAt > 0)
	Hops        uint64  // collective-tree topology hops (zero unless Topo set)
}

// NewJacobi boots a machine sized for the config and builds (but does
// not start) the Jacobi job on it — the build/run split lets the
// benchmarks measure the store's resident footprint before any
// message flows.
func NewJacobi(cfg JacobiConfig) (*core.Machine, *Job, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	mc := core.Config{NumPEs: cfg.PEs}
	if cfg.Mode != ModeEvent {
		// Size each PE's isomalloc slot for its resident rank stacks
		// (plus thread heaps and guard slack) — the ULT backend's
		// per-rank memory is the point of the comparison.
		perPE := uint64((cfg.Ranks + cfg.PEs - 1) / cfg.PEs)
		stackPages := vmem.RoundUpPages(cfg.StackSize)/vmem.PageSize + 2
		if pages := perPE*(stackPages+8) + 1024; pages > core.DefaultIsoSlotPages {
			mc.IsoSlotPages = pages
		}
	}
	m, err := core.NewMachine(mc)
	if err != nil {
		return nil, nil, err
	}
	job, err := NewJacobiOn(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, job, nil
}

// NewJacobiOn builds the Jacobi job on an existing machine — the
// entry point sharded workers use, where the machine carries a local
// PE range and a socket transport. cfg.PEs must match the machine.
func NewJacobiOn(m *core.Machine, cfg JacobiConfig) (*Job, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.PEs != m.NumPEs() {
		return nil, fmt.Errorf("ampi: Jacobi config wants %d PEs, machine has %d", cfg.PEs, m.NumPEs())
	}
	return NewProgram(m, cfg.Ranks, Options{
		Mode:           cfg.Mode,
		StackSize:      cfg.StackSize,
		BlockPlacement: cfg.BlockPlacement,
		MsgOverheadNs:  cfg.MsgOverheadNs,
		Strategy:       cfg.Strategy,
		Collectives:    cfg.Collectives,
		Topo:           cfg.Topo,
		LocalPUP:       jacobiLocalPUP,
	}, JacobiProgram(cfg))
}

// RunJacobi boots a machine sized for the config, runs the Jacobi
// program in the configured mode, and reports predicted time, message
// count, and wall clock.
func RunJacobi(cfg JacobiConfig) (JacobiResult, error) {
	if err := cfg.defaults(); err != nil {
		return JacobiResult{}, err
	}
	m, job, err := NewJacobi(cfg)
	if err != nil {
		return JacobiResult{}, err
	}
	t0 := time.Now()
	job.Run()
	wall := float64(time.Since(t0).Nanoseconds())
	if !job.Done() {
		return JacobiResult{}, fmt.Errorf("ampi: Jacobi run did not complete (%d ranks, mode %s)", cfg.Ranks, job.Mode())
	}
	stats := m.Network().Snapshot()
	return JacobiResult{
		PredictedNs: job.PredictedNs(),
		Msgs:        stats.Sent,
		WallNs:      wall,
		StepWallNs:  wall / float64(cfg.Iters),
		Moved:       job.LBMoved(),
		Hops:        m.Network().TopoHops(),
	}, nil
}
