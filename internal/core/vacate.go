package core

import (
	"errors"
	"fmt"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/migrate"
)

// Move is one entry in a batch migration: thread T — or record R,
// when non-nil — goes to PE Dest. Record moves also name their source
// PE in Src (a thread's source is its scheduler; a record has none).
type Move struct {
	T    *converse.Thread
	R    migrate.Record
	Src  int
	Dest int
}

// MigrateMany forcibly moves a batch of non-running flows — Ready or
// Suspended threads, and records — in one migrate.BulkMigrate call,
// without the flows' cooperation: the load balancer's and the
// fault-tolerance layer's migration primitive. A thread that was
// waiting for an event keeps waiting on its destination; a runnable
// one becomes runnable there. Directory entries and network costs are
// handled like a self-initiated migration. Moves whose flow is already
// on its destination are skipped. It returns how many flows moved and
// the first error encountered; a failed move does not abort the rest
// of the batch. A running RunParallel does not end while a batch is in
// flight, and is woken when it finishes.
func (m *Machine) MigrateMany(moves []Move) (int, error) {
	m.detect(func(d *detector) { d.batchBegin() })
	defer m.Wake() // after batchEnd: deferred calls run last first
	defer m.detect(func(d *detector) { d.batchEnd() })
	ops := make([]migrate.Op, 0, len(moves))
	for _, mv := range moves {
		if mv.Dest < 0 || mv.Dest >= len(m.pes) {
			return 0, fmt.Errorf("core: MigrateMany: PE %d out of range", mv.Dest)
		}
		if mv.R != nil {
			if mv.Src < 0 || mv.Src >= len(m.pes) {
				return 0, fmt.Errorf("core: MigrateMany: record %d source PE %d out of range", mv.R.ID(), mv.Src)
			}
			if mv.Src == mv.Dest {
				continue
			}
			ops = append(ops, migrate.Op{R: mv.R, Src: m.pes[mv.Src], Dst: m.pes[mv.Dest]})
			continue
		}
		src := mv.T.Scheduler().PE()
		if src.Index == mv.Dest {
			continue
		}
		ops = append(ops, migrate.Op{T: mv.T, Src: src, Dst: m.pes[mv.Dest]})
	}
	results := migrate.BulkMigrate(ops, m.layout)
	moved := 0
	var firstErr error
	for i, res := range results {
		if res.Err != nil {
			// A thread that raced us — started running, migrated in
			// another batch, or exited — is simply not moved this
			// round; the balancer will see it again next epoch.
			// Anything else is a real failure.
			if errors.Is(res.Err, converse.ErrNotEvictable) {
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("core: MigrateMany: flow %d: %w", opFlowID(ops[i]), res.Err)
			}
			continue
		}
		if err := m.finishMigration(opFlowID(ops[i]), ops[i].Src.Index, ops[i].Dst.Index, res.Bytes); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved++
	}
	return moved, firstErr
}

// opFlowID names an op's flow: the record's entity id or the thread's
// id (thread ids double as entity ids throughout the runtime).
func opFlowID(op migrate.Op) comm.EntityID {
	if op.R != nil {
		return comm.EntityID(op.R.ID())
	}
	return comm.EntityID(op.T.ID())
}

// Vacate evacuates every thread from PE pe in one bulk batch,
// spreading them round-robin over the surviving PEs — the paper's
// proactive fault-tolerance scenario ("to vacate a node that is
// expected to fail or be shut down", §3). The PE must be quiescent
// (no Running thread): call from outside the machine's scheduling
// loops, or after RunUntilQuiescent. It returns how many threads
// moved.
func (m *Machine) Vacate(pe int) (int, error) {
	if pe < 0 || pe >= len(m.pes) {
		return 0, fmt.Errorf("core: Vacate: PE %d out of range", pe)
	}
	if len(m.pes) < 2 {
		return 0, fmt.Errorf("core: Vacate: no surviving PE to evacuate to")
	}
	var moves []Move
	next := 0
	for _, t := range m.pes[pe].Sched.Threads() {
		if next == pe {
			next = (next + 1) % len(m.pes)
		}
		moves = append(moves, Move{T: t, Dest: next})
		next = (next + 1) % len(m.pes)
	}
	moved, err := m.MigrateMany(moves)
	if err != nil {
		return moved, fmt.Errorf("core: Vacate PE %d: %w", pe, err)
	}
	return moved, nil
}
