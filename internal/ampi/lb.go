package ampi

import (
	"fmt"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// Rebalance is one LB step, called from *outside* the job at a
// quiescent point or by the Migrate gate's driver: measure every rank's
// load, plan (through PlanComm, with the measured communication graph,
// when the strategy is CommAware), and move what the plan moves by
// forced migration — ULT ranks as threads, event ranks as continuation
// records, both through core.Machine.MigrateMany. Each backend supplies
// only its load samples and its commit. Ranks blocked in Recv keep
// waiting on their new PE. It returns the number of ranks moved.
func (j *Job) Rebalance(strategy loadbalance.Strategy) (int, error) {
	if strategy == nil {
		return 0, fmt.Errorf("ampi: Rebalance: nil strategy")
	}
	j.lbMu.Lock()
	defer j.lbMu.Unlock()
	if j.store() == nil {
		return 0, nil // an event job that already completed
	}
	buf := loadbalance.AcquireItems()
	*buf = j.be.loads(*buf)
	var plan loadbalance.Plan
	if ca, ok := strategy.(loadbalance.CommAware); ok {
		plan = ca.PlanComm(*buf, j.CommGraph(), j.m.NumPEs())
	} else {
		plan = strategy.Plan(*buf, j.m.NumPEs())
	}
	loadbalance.ReleaseItems(buf)
	// Walk ranks in order (plan map iteration is randomized) so the
	// batch — and everything downstream of it — is deterministic.
	var moves []comm.RangeMove
	for r := 0; r < j.size; r++ {
		if dest, ok := plan[uint64(j.entity(r))]; ok && dest != j.PEOf(r) {
			moves = append(moves, comm.RangeMove{Index: r, To: dest})
		}
	}
	moved, err := j.be.commit(moves)
	// The load database and the comm graph describe one period: both
	// start over here.
	j.be.resetLoads()
	j.mu.Lock()
	clear(j.traffic)
	j.mu.Unlock()
	if err != nil {
		return moved, fmt.Errorf("ampi: Rebalance: %w", err)
	}
	return moved, nil
}

// loads appends every thread rank's (id, PE, consumed CPU time) sample
// to buf — the load database the paper's runtime gathers — in one pass
// into the caller's pooled buffer, so an LB step allocates no database.
func (b ultBE) loads(buf []loadbalance.Item) []loadbalance.Item {
	for i := range b.job.ranks {
		th := b.job.ranks[i].th
		pe, load := th.LoadSample()
		buf = append(buf, loadbalance.Item{ID: uint64(th.ID()), PE: pe, Load: load})
	}
	return buf
}

func (b ultBE) resetLoads() {
	for i := range b.job.ranks {
		b.job.ranks[i].th.ResetCPUTime()
	}
}

// commit moves every live thread rank of moves, suspended, through the
// ordinary bulk path.
func (b ultBE) commit(moves []comm.RangeMove) (int, error) {
	var tms []core.Move
	for _, mv := range moves {
		if th := b.job.ranks[mv.Index].th; th.State() != converse.Exited {
			tms = append(tms, core.Move{T: th, Dest: mv.To})
		}
	}
	return b.job.m.MigrateMany(tms)
}

// CommGraph returns the application traffic measured between ranks
// since the last LB step, as edges keyed by rank identity — the input
// to communication-aware balancing. Only thread ranks record traffic.
func (j *Job) CommGraph() []loadbalance.Edge {
	j.mu.Lock()
	defer j.mu.Unlock()
	edges := make([]loadbalance.Edge, 0, len(j.traffic))
	for pair, bytes := range j.traffic {
		edges = append(edges, loadbalance.Edge{
			A:     uint64(j.entity(int(pair >> 32))),
			B:     uint64(j.entity(int(uint32(pair)))),
			Bytes: bytes,
		})
	}
	return edges
}

// PELoads sums the measured load per PE.
func (j *Job) PELoads() []float64 {
	buf := loadbalance.AcquireItems()
	*buf = j.be.loads(*buf)
	loads := loadbalance.PELoads(*buf, j.m.NumPEs(), nil)
	loadbalance.ReleaseItems(buf)
	return loads
}
