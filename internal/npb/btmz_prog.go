package npb

// Program-mode BT-MZ: the zone step expressed once as an ampi.Proc
// and interpreted by either flow backend — Params.Mode "ult" runs it
// on migratable threads, "event" on continuation records.
// The step body (solve → halo sends → deterministic specific-source
// receives → optional LB gate) is shared verbatim, so the predicted
// makespan is bit-identical across modes; only the migration
// mechanism differs. This is the configuration that scales the
// paper's Figure 12 study to zone counts (10^5+) where per-zone
// threads stop being affordable and per-zone event ranks do not.

import (
	"fmt"
	"sort"

	"migflow/internal/ampi"
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

// btmzTopology is the zone→rank assignment and the per-rank halo
// pattern both Run paths derive from a Params.
type btmzTopology struct {
	myWork   []float64 // modeled solver ns per rank per step
	sendTo   [][]int   // rank → destination ranks, one per crossing pair
	recvFrom [][]int   // rank → source ranks (with multiplicity), sorted
}

func buildTopology(p Params) btmzTopology {
	var t btmzTopology
	sizes := p.Class.ZoneSizes()
	zones := AssignZones(sizes, p.NProcs)
	owner := make([]int, p.Class.NumZones())
	for r, zs := range zones {
		for _, z := range zs {
			owner[z] = r
		}
	}
	t.myWork = make([]float64, p.NProcs)
	t.sendTo = make([][]int, p.NProcs)
	t.recvFrom = make([][]int, p.NProcs)
	for r, zs := range zones {
		for _, z := range zs {
			t.myWork[r] += sizes[z] * p.Class.WorkPerPointNs
			for _, nb := range p.Class.ZoneNeighbors(z) {
				if owner[nb] != r {
					t.sendTo[r] = append(t.sendTo[r], owner[nb])
					t.recvFrom[owner[nb]] = append(t.recvFrom[owner[nb]], r)
				}
			}
		}
	}
	// Receives name their sources in sorted order: the matching
	// sequence is then a pure function of the topology, not of
	// message arrival races — what makes the makespan reproducible
	// and mode-invariant.
	for r := range t.recvFrom {
		sort.Ints(t.recvFrom[r])
	}
	return t
}

// btmzProgram builds the shared program: every statement is built here,
// once per step (the solve records into workPE[step]), and what differs
// per rank — its work, its destinations, its sources — is read off the
// rank when a statement runs, so a rank running a step builds nothing.
// workPE[step][rank] records where each rank's solve actually ran; the
// makespan sums are taken in rank order afterwards, so the per-PE
// totals are a pure function of placement — not of the two backends'
// different scheduling (and float-accumulation) orders. The
// halo-exchange critical path is len(sendTo[r])·Cost(HaloBytes),
// placement-independent.
func btmzProgram(p Params, t btmzTopology, workPE [][]int32) ampi.Proc {
	halo := make([]byte, p.HaloBytes)
	sendHalos := func(pc *ampi.PC) {
		for _, dest := range t.sendTo[pc.Rank()] {
			pc.Send(dest, 1, halo)
		}
	}
	recvHalos := ampi.RecvEach(func(pc *ampi.PC) []int { return t.recvFrom[pc.Rank()] }, 1, nil)
	// One residual-reduction site, shared by every rank and step. With
	// Overlap it is pipelined: the reduce step starts it, the next
	// reduce step (or the epilogue) collects it — at most one
	// outstanding at a time.
	work := func(pc *ampi.PC) float64 { return t.myWork[pc.Rank()] }
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
		solve := func(pc *ampi.PC) {
			pc.Work(work(pc))
			workPE[i][pc.Rank()] = int32(pc.PE())
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

// ProgramJob builds the program-mode BT-MZ job on an existing machine
// without running it — the entry point sharded workers use, where the
// machine carries a local PE range and a socket transport. The same
// deterministic topology and program tree are built in every process,
// which is what makes the per-rank VT of a 2-process run bitwise
// equal to the in-process one. Defaults mirror Run's.
func ProgramJob(m *core.Machine, p Params) (*ampi.Job, error) {
	if p.Mode == "" {
		return nil, fmt.Errorf("npb: ProgramJob needs a program Mode")
	}
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if p.NPEs != m.NumPEs() {
		return nil, fmt.Errorf("npb: bad params for machine with %d PEs: %+v", m.NumPEs(), p)
	}
	job, _, _, err := programJob(m, p)
	return job, err
}

// programJob builds the job for validated params, and also returns
// what runProgram's makespan needs: the topology and the per-step
// record of where each rank's solve ran.
func programJob(m *core.Machine, p Params) (*ampi.Job, btmzTopology, [][]int32, error) {
	t := buildTopology(p)
	workPE := make([][]int32, p.Steps)
	for i := range workPE {
		workPE[i] = make([]int32, p.NProcs)
	}
	job, err := ampi.NewProgram(m, p.NProcs, ampi.Options{
		Mode:           p.Mode,
		BlockPlacement: true,
		Collectives:    p.Collectives,
		Topo:           p.Topo,
	}, btmzProgram(p, t, workPE))
	return job, t, workPE, err
}

// runProgram is the Params.Mode != "" execution path.
func runProgram(p Params) (*Result, error) {
	if p.Mode != ampi.ModeULT && p.Mode != ampi.ModeEvent {
		return nil, fmt.Errorf("npb: unknown mode %q (want %q or %q)", p.Mode, ampi.ModeULT, ampi.ModeEvent)
	}
	if p.Steal || p.Aggregate || p.Trace {
		return nil, fmt.Errorf("npb: program mode does not support Steal/Aggregate/Trace")
	}
	m, err := core.NewMachine(core.Config{NumPEs: p.NPEs})
	if err != nil {
		return nil, err
	}
	job, t, workPE, err := programJob(m, p)
	if err != nil {
		return nil, err
	}
	job.Run()
	if !job.Done() {
		return nil, fmt.Errorf("npb: program-mode job did not complete (deadlock?)")
	}
	lat := m.Network().Latency()
	commStep := 0.0
	for r := range t.sendTo {
		if c := float64(len(t.sendTo[r])) * lat.Cost(p.HaloBytes); c > commStep {
			commStep = c
		}
	}
	var total float64
	busy := make([]float64, p.NPEs)
	for _, pes := range workPE {
		for i := range busy {
			busy[i] = 0
		}
		for r, pe := range pes {
			busy[pe] += t.myWork[r]
		}
		total += stepNs(busy, commStep, p.Overlap)
	}
	// Modeled per-PE load under the final placement (one step's
	// solver work) — the Imbalance the balancer left behind.
	loads := make([]float64, p.NPEs)
	for r := range t.myWork {
		loads[job.PEOf(r)] += t.myWork[r]
	}
	res := newResult(p, job, total, commStep*float64(p.Steps), loads)
	res.PredictedNs = job.PredictedNs()
	return res, nil
}
