//go:build !race

package ampi

import (
	"runtime"
	"testing"
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
