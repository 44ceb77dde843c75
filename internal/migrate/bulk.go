package migrate

import (
	"cmp"
	"fmt"
	"slices"

	"migflow/internal/converse"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
)

// Record is a migratable flow that is NOT a thread: a compact,
// self-describing state record (an event-mode AMPI continuation, 120
// to 240 bytes) that serializes and reinstates itself. Unlike a thread, a
// record has no stack, heap, or scheduler entry — Extract/Install ARE
// the whole migration, so BulkMigrate skips eviction, vmem image
// validation, and adoption entirely.
type Record interface {
	// ID names the record (its comm entity id) for error reporting.
	ID() uint64
	// Extract serializes the record's migratable state into p.
	Extract(p *pup.PUPer) error
	// Install overwrites the record's state from a prior Extract's
	// bytes, completing the move.
	Install(data []byte) error
}

// Op is one move in a bulk migration: thread T (or record R, when
// non-nil) leaves Src for Dst. A thread must be Ready or Suspended
// (not Running): BulkMigrate evicts it. Exactly one of T and R is set.
type Op struct {
	T   *converse.Thread
	R   Record
	Src *converse.PE
	Dst *converse.PE
}

// Result reports one Op's outcome. Bytes is the serialized image size
// (what would cross the network); Suspended records whether the
// thread was waiting (and so keeps waiting on Dst). A failed op
// leaves its thread untouched on the source when the failure happened
// before extraction; failures during install are reported in Err and
// the thread's state is whatever the partial install left (as with a
// real mid-migration node fault).
type Result struct {
	Bytes     int
	Suspended bool
	Err       error
}

// BulkMigrate moves a batch of threads and records, one op after the
// other on the calling goroutine. A thread op evicts the thread from
// its source scheduler and runs the ordinary migration (MigrateNow's
// extract → PUP → install → adopt); a record op is Extract then
// Install. Every op of the batch goes through one mover scratch — one
// thread image and one packer, refilled per op — so a batch allocates
// its results and nothing per move.
//
// Ops run grouped by (source, destination) PE regardless of their
// order in the slice: a real LB emits moves in object order, which
// ping-pongs between PEs; grouping keeps each PE's space and scheduler
// structures hot across consecutive ops. Results stay indexed by the
// caller's op order, and one op's failure does not abort the rest of
// the batch. Concurrent batches over the same PEs are safe: each has
// its own mover, the per-structure locks guarding Scheduler, Space,
// IsoAllocator and ThreadHeap serialize them, and Evict refuses a
// thread another batch already took (converse.ErrNotEvictable).
func BulkMigrate(ops []Op, layout *swapglobal.Layout) []Result {
	m := getMover()
	defer moverPool.Put(m)
	return m.bulk(ops, layout)
}

// bulk runs BulkMigrate's batch through m.
func (m *mover) bulk(ops []Op, layout *swapglobal.Layout) []Result {
	results := make([]Result, len(ops))
	m.order = m.order[:0]
	for i := range ops {
		m.order = append(m.order, i)
	}
	slices.SortStableFunc(m.order, func(a, b int) int {
		oa, ob := &ops[a], &ops[b]
		if c := cmp.Compare(oa.Src.Index, ob.Src.Index); c != 0 {
			return c
		}
		return cmp.Compare(oa.Dst.Index, ob.Dst.Index)
	})
	for _, i := range m.order {
		op := ops[i]
		if op.R == nil {
			results[i] = m.migrateThread(op, layout)
			continue
		}
		m.p.Reset()
		if err := op.R.Extract(m.p); err != nil {
			results[i].Err = err
			continue
		}
		if err := op.R.Install(m.p.PackedBytes()); err != nil {
			results[i].Err = fmt.Errorf("migrate: bulk install of record %d: %w", op.R.ID(), err)
			continue
		}
		results[i].Bytes = len(m.p.PackedBytes())
	}
	return results
}

// migrateThread runs one thread op: evict, then move.
func (m *mover) migrateThread(op Op, layout *swapglobal.Layout) Result {
	suspended, err := op.Src.Sched.Evict(op.T)
	if err != nil {
		return Result{Err: err}
	}
	n, err := m.move(op.T, op.Src, op.Dst, layout, suspended)
	if err != nil {
		return Result{Err: err}
	}
	return Result{Bytes: n, Suspended: suspended}
}
