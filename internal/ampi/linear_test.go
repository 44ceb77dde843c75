//go:build !race

package ampi

import (
	"runtime"
	"testing"

	"migflow/internal/loadbalance"
)

// TestULTRunBodyAllocatesLinearly: doubling a ULT Jacobi job's ranks
// (same PEs, so each PE's location cache learns twice the
// destinations) must roughly double what the run body allocates. A
// location cache that copies itself on every first contact adds a term
// quadratic in destinations per PE, which dominated this figure before
// comm's tables became O(1) per write; the run body is then ~4× per
// doubling. Bytes, not time, and not under the race detector.
func TestULTRunBodyAllocatesLinearly(t *testing.T) {
	runBody := func(ranks int) uint64 {
		_, job, err := NewJacobi(JacobiConfig{
			Mode: ModeULT, Ranks: ranks, Iters: 4, PEs: 4, ReduceEvery: 2, BlockPlacement: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job.Run()
		runtime.ReadMemStats(&after)
		if !job.Done() {
			t.Fatalf("%d-rank job did not complete", ranks)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := runBody(2048), runBody(4096)
	t.Logf("run body allocates %d B at 2048 ranks, %d B at 4096 (×%.2f)", small, large, float64(large)/float64(small))
	if float64(large) > 2.5*float64(small) {
		t.Errorf("run body allocates %d B at 4096 ranks, %.2f × the %d B at 2048; want ≤ 2.5 ×", large, float64(large)/float64(small), small)
	}
}

// TestGateMoveAllocations pins what an in-process LB move costs now
// that it ships the wire record: four RotateLB rounds through
// Job.Rebalance over Local-free event ranks parked at a gate — plan,
// extract, the record's bytes, install, the rebuilt stack — allocate
// at most 0.1 objects per moved rank. The slot keeps its frame array
// across the trip, so the rebuilt stack allocates nothing, and a
// commit's records sit in one slice, so no record is boxed (1.01
// objects per moved rank when each was; 0.01 measured since).
func TestGateMoveAllocations(t *testing.T) {
	const ranks, pes, rounds = 4096, 8, 4
	ring := Seq(
		Do(func(pc *PC) { pc.Send((pc.Rank()+1)%pc.Size(), 0, nil) }),
		RecvFrom(func(pc *PC) int { return (pc.Rank() + pc.Size() - 1) % pc.Size() }, 0, nil),
	)
	m := newMachine(t, pes, nil)
	job, err := NewProgram(m, ranks, Options{Mode: ModeEvent}, Seq(ring, Migrate(loadbalance.RotateLB{}), ring))
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunUntilQuiescent()
	if !job.gateReady() {
		t.Fatal("ranks did not park at the gate")
	}
	moved := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		n, err := job.Rebalance(loadbalance.RotateLB{})
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	runtime.ReadMemStats(&after)
	if moved != rounds*ranks {
		t.Fatalf("moved %d ranks in %d rotations of %d", moved, rounds, ranks)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(moved)
	_, bytes := m.MigrationStats()
	t.Logf("%.2f allocations per moved rank, %d B per record", per, bytes/uint64(moved))
	if per > 0.1 {
		t.Errorf("an in-process gate move allocates %.2f objects per rank, want ≤ 0.1", per)
	}
	job.serviceGate()
	m.RunUntilQuiescent()
	if !job.Done() {
		t.Fatal("job did not complete after the rotations")
	}
}
