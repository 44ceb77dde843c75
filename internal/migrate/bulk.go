package migrate

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"migflow/internal/converse"
	"migflow/internal/pup"
	"migflow/internal/swapglobal"
)

// Record is a migratable flow that is NOT a thread: a compact,
// self-describing state record (an event-mode AMPI continuation, 120
// to 240 bytes) that serializes and reinstates itself. Unlike a thread, a
// record has no stack, heap, or scheduler entry — Extract/Install ARE
// the whole migration, so the bulk pipeline skips eviction, vmem
// image validation, and adoption entirely.
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
// (not Running) — the same contract as MigrateExternal. Exactly one
// of T and R is set.
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

// BulkMigrate moves a batch of threads with a two-stage pipeline:
// stage one evicts, extracts and serializes on the source PEs; stage
// two deserializes, installs and re-adopts on the destinations. Each
// stage runs on a bounded worker pool (workers <= 0 selects
// GOMAXPROCS) connected by a buffered channel, so source-side page
// copying for thread k overlaps destination-side page mapping for
// thread k-1 — one LB step issues one batch instead of N serial
// extract→install round trips.
//
// Ops are processed grouped by (source, destination) PE regardless of
// their order in the slice: a real LB emits moves in object order,
// which ping-pongs between PEs; grouping keeps each PE's space and
// scheduler structures hot across consecutive ops. When only one
// worker can run (workers == 1, or a single-processor host), the
// pipeline degenerates to an inline loop over the grouped ops with a
// single reused packer — same semantics, none of the channel
// machinery.
//
// Every packer is pooled and every op gets an independent Result;
// one thread's failure does not abort the rest of the batch.
// Correctness relies on the per-structure locks already guarding
// Scheduler, Space, IsoAllocator and ThreadHeap — ops may touch the
// same PEs concurrently.
func BulkMigrate(ops []Op, layout *swapglobal.Layout, workers int) []Result {
	results := make([]Result, len(ops))
	if len(ops) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ops) {
		workers = len(ops)
	}

	// Group ops by (src, dst) for locality; results stay indexed by
	// the caller's op order.
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := ops[order[a]], ops[order[b]]
		if oa.Src.Index != ob.Src.Index {
			return oa.Src.Index < ob.Src.Index
		}
		return oa.Dst.Index < ob.Dst.Index
	})

	// packOne evicts op i and serializes its image into p (which must
	// be empty). It reports whether the thread was suspended; on error
	// it fills results[i] and returns false, false. Record ops skip
	// eviction: a record is not scheduled, and its Extract is
	// internally synchronized against deliveries.
	packOne := func(i int, p *pup.PUPer) (suspended, ok bool) {
		op := ops[i]
		if op.R != nil {
			if err := op.R.Extract(p); err != nil {
				results[i].Err = err
				return false, false
			}
			return false, true
		}
		wasSuspended, err := op.Src.Sched.Evict(op.T)
		if err != nil {
			results[i].Err = err
			return false, false
		}
		im, err := Extract(op.T, op.Src)
		if err != nil {
			results[i].Err = err
			return false, false
		}
		if err := im.Pup(p); err != nil {
			results[i].Err = err
			return false, false
		}
		return wasSuspended, true
	}

	// installOne deserializes data onto op i's destination and hands
	// the thread over, filling results[i] either way.
	installOne := func(i int, data []byte, suspended bool) {
		op := ops[i]
		if op.R != nil {
			if err := op.R.Install(data); err != nil {
				results[i].Err = fmt.Errorf("migrate: bulk install of record %d: %w", op.R.ID(), err)
				return
			}
			results[i].Bytes = len(data)
			return
		}
		var im ThreadImage
		if err := pup.Unpack(data, &im); err != nil {
			results[i].Err = fmt.Errorf("migrate: bulk unpack of thread %d: %w", op.T.ID(), err)
			return
		}
		if err := Install(op.T, op.Dst, &im, layout); err != nil {
			results[i].Err = err
			return
		}
		op.Src.Sched.Disown(op.T)
		if suspended {
			op.Dst.Sched.AdoptSuspended(op.T)
		} else {
			op.Dst.Sched.Adopt(op.T)
		}
		results[i].Bytes = len(data)
		results[i].Suspended = suspended
	}

	if workers == 1 || runtime.GOMAXPROCS(0) == 1 {
		p := pup.AcquirePacker()
		defer p.Release()
		for _, i := range order {
			p.Reset()
			if suspended, ok := packOne(i, p); ok {
				installOne(i, p.PackedBytes(), suspended)
			}
		}
		return results
	}

	type packed struct {
		idx       int
		p         *pup.PUPer // pooled packer handed across; stage two releases it
		suspended bool
	}
	work := make(chan int, len(ops))
	packedCh := make(chan packed, workers)

	var extractWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		extractWG.Add(1)
		go func() {
			defer extractWG.Done()
			for i := range work {
				// The packer crosses the channel with its bytes in place —
				// no wire-buffer copy; the install worker releases it back
				// to the pool.
				p := pup.AcquirePacker()
				suspended, ok := packOne(i, p)
				if !ok {
					p.Release()
					continue
				}
				packedCh <- packed{idx: i, p: p, suspended: suspended}
			}
		}()
	}

	var installWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		installWG.Add(1)
		go func() {
			defer installWG.Done()
			for pk := range packedCh {
				installOne(pk.idx, pk.p.PackedBytes(), pk.suspended)
				pk.p.Release()
			}
		}()
	}

	for _, i := range order {
		work <- i
	}
	close(work)
	extractWG.Wait()
	close(packedCh)
	installWG.Wait()
	return results
}
