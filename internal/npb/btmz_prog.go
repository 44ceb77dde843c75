package npb

// The BT-MZ zone step, expressed once as an ampi.Proc and interpreted
// by either flow backend — ULT ranks (Params.Mode "" and "ult") run it
// on migratable threads, "event" on continuation records. The step body
// (solve → halo sends → deterministic specific-source receives →
// optional LB gate) is shared verbatim, so the predicted makespan is
// bit-identical across modes; only the migration mechanism differs.
// Event mode is the configuration that scales the paper's Figure 12
// study to zone counts (10^5+) where per-zone threads stop being
// affordable and per-zone event ranks do not.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
)

// GradedClass builds a custom zone grid with BT-MZ's geometric size
// grading — the knob the large-scale LB studies turn. ratio 1 models
// SP/LU-MZ's equal zones; ratio 20 matches BT-MZ; larger ratios
// sharpen the imbalance the balancer must fix.
func GradedClass(name string, nx, ny int, points, ratio, workPerPointNs float64) Class {
	return Class{Name: name, ZonesX: nx, ZonesY: ny, WorkPerPointNs: workPerPointNs, Points: points, Ratio: ratio}
}

// ClassZ4K is the skewed 4,096-zone (64×64) study class: one zone
// per rank, graded 20:1, sized so CI-scale runs stay fast.
var ClassZ4K = GradedClass("Z4K", 64, 64, 1<<22, 20, 50)

// btmzRun is one job's zone→rank assignment and per-rank halo pattern,
// plus what its makespan model reads afterwards: where every solve
// slice ran, and the first error a rank's step-counter check found.
type btmzRun struct {
	myWork   []float64 // modeled solver ns per rank per step
	sendTo   [][]int   // rank → destination ranks, one per crossing pair
	recvFrom [][]int   // rank → source ranks (with multiplicity), sorted
	chunks   int       // solve slices per rank-step (Params.WorkChunks)
	// workPE[step][rank·chunks+k] is the PE slice k of rank's solve ran
	// on in step — a steal can move a rank between its slices.
	workPE [][]int32
	err    atomic.Pointer[error] // the first step-counter failure
}

func newBTMZRun(p Params) *btmzRun {
	sizes := p.Class.ZoneSizes()
	zones := AssignZones(sizes, p.NProcs)
	owner := make([]int, p.Class.NumZones())
	for r, zs := range zones {
		for _, z := range zs {
			owner[z] = r
		}
	}
	run := &btmzRun{
		myWork:   make([]float64, p.NProcs),
		sendTo:   make([][]int, p.NProcs),
		recvFrom: make([][]int, p.NProcs),
		chunks:   p.WorkChunks,
		workPE:   make([][]int32, p.Steps),
	}
	for r, zs := range zones {
		for _, z := range zs {
			run.myWork[r] += sizes[z] * p.Class.WorkPerPointNs
			for _, nb := range p.Class.ZoneNeighbors(z) {
				if owner[nb] != r {
					run.sendTo[r] = append(run.sendTo[r], owner[nb])
					run.recvFrom[owner[nb]] = append(run.recvFrom[owner[nb]], r)
				}
			}
		}
	}
	// Receives name their sources in sorted order: the matching
	// sequence is then a pure function of the topology, not of
	// message arrival races — what makes the makespan reproducible
	// and mode-invariant.
	for r := range run.recvFrom {
		sort.Ints(run.recvFrom[r])
	}
	for i := range run.workPE {
		run.workPE[i] = make([]int32, p.NProcs*p.WorkChunks)
	}
	return run
}

// exchangeNs is each step's critical-path halo-exchange cost: the worst
// rank's outbound traffic, one message per halo — or, aggregated, one
// envelope per destination PE under the placement the step's solves
// ran on (the gate moves ranks only between steps).
func (run *btmzRun) exchangeNs(p Params, lat comm.LatencyModel) []float64 {
	stepComm := make([]float64, p.Steps)
	perPE := make([]int, p.NPEs)
	for step, pes := range run.workPE {
		for _, dests := range run.sendTo {
			c := float64(len(dests)) * lat.Cost(p.HaloBytes)
			if p.Aggregate {
				c = 0
				for _, dest := range dests {
					perPE[pes[(dest+1)*run.chunks-1]] += p.HaloBytes
				}
				for pe, bytes := range perPE {
					if bytes > 0 {
						c += lat.Cost(bytes)
						perPE[pe] = 0
					}
				}
			}
			stepComm[step] = max(stepComm[step], c)
		}
	}
	return stepComm
}

// btmzProgram builds the shared program: every statement is built here,
// once per step, and what differs per rank — its work, its destinations,
// its sources — is read off the rank when a statement runs, so a rank
// running a step builds nothing. The solve records where each of its
// slices ran into run.workPE; the makespan sums are taken in rank order
// afterwards, so the per-PE totals are a pure function of placement —
// not of the two backends' different scheduling (and float-accumulation)
// orders. With counted set (the machine carries btmzGlobals' layout)
// each solve also checks and advances the rank's privatized step
// counter.
func btmzProgram(p Params, run *btmzRun, counted bool) ampi.Proc {
	halo := make([]byte, p.HaloBytes)
	sendHalos := func(pc *ampi.PC) {
		for _, dest := range run.sendTo[pc.Rank()] {
			pc.Send(dest, 1, halo)
		}
	}
	recvHalos := ampi.RecvEach(func(pc *ampi.PC) []int { return run.recvFrom[pc.Rank()] }, 1, nil)
	// One residual-reduction site, shared by every rank and step. With
	// Overlap it is pipelined: the reduce step starts it, the next
	// reduce step (or the epilogue) collects it — at most one
	// outstanding at a time.
	work := func(pc *ampi.PC) float64 { return run.myWork[pc.Rank()] }
	var allreduce, arStart, arWait ampi.Proc
	if p.ReduceEvery > 0 {
		if p.Overlap {
			arStart, arWait = ampi.Iallreduce("max", work, nil)
		} else {
			allreduce = ampi.Allreduce("max", work, nil)
		}
	}
	steps := make([]ampi.Proc, p.Steps)
	for i := range steps {
		workPE := run.workPE[i]
		// The solve is WorkChunks slices — the solver's directional
		// sweeps — with a yield after each when there are several: each
		// yield is a point where an idle PE may steal a ULT rank, so the
		// remaining sweeps run (and are charged) where the free cycles
		// are.
		solve := func(pc *ampi.PC) {
			r := pc.Rank()
			if counted {
				countStep(pc, run, i)
			}
			slice := run.myWork[r] / float64(run.chunks)
			for k := 0; k < run.chunks; k++ {
				pc.Work(slice)
				if p.Steal {
					// Occupy the PE for wall time proportional to the
					// modeled slice, so real idleness tracks modeled load
					// and thieves pull from genuinely busy PEs.
					spinWall(slice / DefaultSpinScale)
				}
				workPE[r*run.chunks+k] = int32(pc.PE())
				if run.chunks > 1 {
					pc.Yield()
				}
			}
		}
		var ps []ampi.Proc
		if p.Overlap {
			// Split-phase: halos leave before the solve, so their
			// flight time hides under it; a reduction started last
			// reduce step completes under this solve too.
			ps = append(ps, ampi.Do(func(pc *ampi.PC) {
				sendHalos(pc)
				solve(pc)
			}))
			if p.ReduceEvery > 0 && i > 0 && i%p.ReduceEvery == 0 {
				ps = append(ps, arWait)
			}
		} else {
			ps = append(ps, ampi.Do(func(pc *ampi.PC) {
				solve(pc)
				sendHalos(pc)
			}))
		}
		ps = append(ps, recvHalos)
		if p.ReduceEvery > 0 && (i+1)%p.ReduceEvery == 0 {
			if p.Overlap {
				ps = append(ps, arStart)
			} else {
				ps = append(ps, allreduce)
			}
		}
		// After the first (measurement) step, everyone meets at
		// the LB gate — threads move as stacks, event ranks as
		// records, one plan either way.
		if i == 0 && p.LB != nil {
			ps = append(ps, ampi.Migrate(p.LB))
		}
		steps[i] = ampi.Seq(ps...)
	}
	body := []ampi.Proc{ampi.For(p.Steps, func(i int) ampi.Proc { return steps[i] })}
	if p.Overlap && p.ReduceEvery > 0 && p.Steps%p.ReduceEvery == 0 {
		// The last step started a reduction; collect it.
		body = append(body, arWait)
	}
	return ampi.Seq(body...)
}

// countStep is the solver's privatized global, unchanged application
// style under AMPI: the counter must still hold the previous step —
// whichever PE the gate moved the rank to — and then takes this one.
// The store dirties the rank's globals, which every later move of the
// thread ships. Event ranks have no globals and skip it.
func countStep(pc *ampi.PC, run *btmzRun, step int) {
	got := pc.Globals()
	if got == nil {
		return
	}
	v, err := got.LoadUint64("step")
	if err == nil && step > 0 && v != uint64(step-1) {
		err = fmt.Errorf("holds %d, want %d", v, step-1)
	}
	if err == nil {
		err = got.StoreUint64("step", uint64(step))
	}
	if err != nil {
		err = fmt.Errorf("npb: rank %d, step %d: privatized step counter: %w", pc.Rank(), step, err)
		run.err.CompareAndSwap(nil, &err)
	}
}

// ProgramJob builds the BT-MZ job on an existing machine without
// running it — the entry point sharded workers use, where the machine
// carries a local PE range and a socket transport. The same
// deterministic topology and program tree are built in every process,
// which is what makes the per-rank VT of a 2-process run bitwise equal
// to the in-process one. Defaults mirror Run's; on a machine booted
// with a globals layout ULT ranks keep Figure 12's privatized step
// counter.
func ProgramJob(m *core.Machine, p Params) (*ampi.Job, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if p.NPEs != m.NumPEs() {
		return nil, fmt.Errorf("npb: bad params for machine with %d PEs: %+v", m.NumPEs(), p)
	}
	job, _, err := programJob(m, p)
	return job, err
}

// programJob builds the job for validated params, and also returns the
// run record Run's makespan reads.
func programJob(m *core.Machine, p Params) (*ampi.Job, *btmzRun, error) {
	run := newBTMZRun(p)
	job, err := ampi.NewProgram(m, p.NProcs, ampi.Options{
		Mode:           p.Mode,
		Globals:        m.Layout(),
		BlockPlacement: true,
		Collectives:    p.Collectives,
		Topo:           p.Topo,
		Aggregate:      p.Aggregate,
		AggPolicy:      p.AggPolicy,
	}, btmzProgram(p, run, m.Layout() != nil))
	return job, run, err
}
