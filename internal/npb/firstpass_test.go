//go:build !race

package npb

import (
	"runtime"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// TestFirstPassAllocations is ampi's test of the same name for the
// BT-MZ program: the whole run of one zone per event rank on the 64×64
// graded class, 4 steps with a GreedyLB gate after the first and a
// residual reduction every second, allocates per rank its Local, its
// carves of the job's first-use blocks, its share of message slabs, and
// the records and plan of the ranks the gate moves. The pool starts
// cold (two collections empty it). Measured on a 2-core host: 0.19–0.22
// allocations per rank under -cpu 1,2,4, against 9.85 with per-rank
// frame stacks, mailboxes grown 1 → 2 → 4, runs, children and single
// messages, 1.83 when a mailbox's second array was appended and each
// moved rank's record boxed, 1.09 with only the records in one slice,
// and 0.29 while a mailbox past its second array of 4 grew by append;
// the bound, 0.28, leaves a quarter of headroom. Where the pool drops what it is given (the msgpoison
// tag) every message may also be allocated afresh.
func TestFirstPassAllocations(t *testing.T) {
	p := Params{Class: ClassZ4K, NProcs: ClassZ4K.NumZones(), NPEs: 4, Mode: ampi.ModeEvent,
		Steps: 4, LB: loadbalance.GreedyLB{}, ReduceEvery: 2}
	m, err := core.NewMachine(core.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	job, err := ProgramJob(m, p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job.Run()
	runtime.ReadMemStats(&after)
	if !job.Done() {
		t.Fatal("job did not complete")
	}
	ranks := float64(p.NProcs)
	perRank := float64(after.Mallocs-before.Mallocs) / ranks
	msgs := float64(m.Network().Snapshot().Sent) / ranks
	bound := 0.28
	if lossyPool {
		bound += msgs
	}
	t.Logf("%.2f allocations per rank over the whole run (%.1f messages)", perRank, msgs)
	if perRank > bound {
		t.Errorf("%.2f allocations per rank over the whole run, want ≤ %.2f", perRank, bound)
	}
}
