package ampi

import (
	"fmt"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// parkAtGate suspends the rank's thread at the LB gate (the Migrate
// Proc, MPI_Migrate) until the driver's serviceGate has rebalanced
// (moving it, suspended, through the ordinary bulk path) and Awakens
// it. Coalesced sends are flushed first: the gate is a block like any
// other, and it is serviced only once nothing is left in flight.
func (r *Rank) parkAtGate() {
	r.flushStream()
	r.job.gateArrive()
	r.ctx.Suspend()
}

// collectLoads appends every rank's (id, PE, load) sample to buf — the
// load database the paper's runtime gathers (thread id, current PE,
// consumed CPU time), read in a single pass into the caller's pooled
// buffer so an LB step allocates no database.
func (j *Job) collectLoads(buf []loadbalance.Item) []loadbalance.Item {
	for _, rk := range j.ranks {
		pe, load := rk.th.LoadSample()
		buf = append(buf, loadbalance.Item{ID: uint64(rk.th.ID()), PE: pe, Load: load})
	}
	return buf
}

// Rebalance is the runtime-driven balancing mode: called from
// *outside* the job at a quiescent point (or by the Migrate gate's
// driver), it plans over the measured loads and moves ranks with
// forced migration — no Migrate statement appears in the application
// at all. One strategy serves both backends: ULT ranks move as
// threads (stack images through the bulk pipeline), event ranks as
// continuation records — the SAME core.Machine.MigrateMany batch
// API, so a mixed runtime could balance both populations with one
// plan. Ranks blocked in Recv keep waiting on their new PE. It
// returns the number of ranks moved.
func (j *Job) Rebalance(strategy loadbalance.Strategy) (int, error) {
	if strategy == nil {
		return 0, fmt.Errorf("ampi: Rebalance: nil strategy")
	}
	if j.ev != nil {
		return j.rebalanceEvent(strategy)
	}
	buf := loadbalance.AcquireItems()
	*buf = j.collectLoads(*buf)
	var plan loadbalance.Plan
	if ca, ok := strategy.(loadbalance.CommAware); ok {
		plan = ca.PlanComm(*buf, j.CommGraph(), j.m.NumPEs())
	} else {
		plan = strategy.Plan(*buf, j.m.NumPEs())
	}
	loadbalance.ReleaseItems(buf)
	var moves []core.Move
	for _, rk := range j.ranks {
		if rk.th.State() == converse.Exited {
			continue
		}
		dest, ok := plan[uint64(rk.th.ID())]
		if !ok || dest == rk.th.Scheduler().PE().Index {
			continue
		}
		moves = append(moves, core.Move{T: rk.th, Dest: dest})
	}
	moved, err := j.m.MigrateMany(moves)
	if err != nil {
		return moved, fmt.Errorf("ampi: Rebalance: %w", err)
	}
	for _, rk := range j.ranks {
		rk.th.ResetCPUTime()
	}
	return moved, nil
}

// rebalanceEvent is the event-mode LB step: measure every live
// rank's accumulated busy time (under its lock), plan, then commit —
// ONE comm range-table batch (a single epoch bump re-arms the
// deliver-side owner check), the engine's owner words and dispatch
// charges, and one MigrateMany batch of continuation records — the
// same record a cross-process move ships. The records' PUP round trips
// and network charges go through exactly the machinery a thread move
// uses, minus eviction, vmem imaging, and adoption.
func (j *Job) rebalanceEvent(strategy loadbalance.Strategy) (int, error) {
	e := j.ev
	e.lbMu.Lock()
	defer e.lbMu.Unlock()
	if e.store() == nil {
		return 0, nil // job already completed
	}
	buf := loadbalance.AcquireItems()
	*buf = e.collectEventLoads(*buf)
	plan := strategy.Plan(*buf, j.m.NumPEs())
	loadbalance.ReleaseItems(buf)
	var moves []core.Move
	var rmoves []comm.RangeMove
	// Walk ranks in order (plan map iteration is randomized) so the
	// batch — and everything downstream of it — is deterministic.
	for r := 0; r < e.size; r++ {
		dest, ok := plan[uint64(e.idOf(r))]
		if !ok {
			continue
		}
		src := e.peOf(r)
		if dest == src {
			continue
		}
		rmoves = append(rmoves, comm.RangeMove{Index: r, To: dest})
		moves = append(moves, core.Move{R: eventRecord{e, r, src}, Src: src, Dest: dest})
	}
	moved, err := e.applyMoves(moves, rmoves)
	e.resetLoads()
	return moved, err
}

// CommGraph returns the measured application traffic between ranks
// as edges keyed by thread id — the input to communication-aware
// balancing.
func (j *Job) CommGraph() []loadbalance.Edge {
	j.mu.Lock()
	defer j.mu.Unlock()
	edges := make([]loadbalance.Edge, 0, len(j.traffic))
	for pair, bytes := range j.traffic {
		edges = append(edges, loadbalance.Edge{
			A:     uint64(j.ranks[pair[0]].th.ID()),
			B:     uint64(j.ranks[pair[1]].th.ID()),
			Bytes: bytes,
		})
	}
	return edges
}

// PELoads sums the measured load per PE.
func (j *Job) PELoads() []float64 {
	buf := loadbalance.AcquireItems()
	*buf = j.collectLoads(*buf)
	loads := loadbalance.PELoads(*buf, j.m.NumPEs(), nil)
	loadbalance.ReleaseItems(buf)
	return loads
}
