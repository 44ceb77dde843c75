package ampi

import (
	"math"
	"testing"
)

// TestBlocksConcurrentFirstUse: under round-robin placement the ranks
// of one first-use block run on every PE, so under the parallel driver
// they cut and carve their block — frame stacks, first mailboxes,
// collective runs and children — from several goroutines at once. Each
// rank's virtual time must still match the serial driver's bit for bit,
// on both backends, with an odd rank count so the last block is short.
// Run it under -race.
func TestBlocksConcurrentFirstUse(t *testing.T) {
	for _, mode := range []string{ModeEvent, ModeULT} {
		cfg := JacobiConfig{Ranks: 2*blockRanks + 37, Iters: 4, PEs: 4, Mode: mode, ReduceEvery: 2}
		_, ref, err := NewJacobi(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run()
		_, job, err := NewJacobi(cfg)
		if err != nil {
			t.Fatal(err)
		}
		job.RunParallel()
		if !ref.Done() || !job.Done() {
			t.Fatalf("%s: a job did not complete", mode)
		}
		for r := 0; r < cfg.Ranks; r++ {
			if a, b := ref.VT(r), job.VT(r); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: rank %d ends at %v under RunParallel, %v under Run", mode, r, b, a)
			}
		}
	}
}
