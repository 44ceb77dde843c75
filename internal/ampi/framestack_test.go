package ampi_test

import (
	"fmt"
	"sync"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/npb"
)

// TestFrameStackSizedFromTree: a rank's frame stack is allocated once,
// at the depth numberSites reads off the program tree, and never grows.
// A probe at the head of every Seq of Jacobi (plain and Overlap), BT-MZ
// and 50 seeds of the workload mix sees the stack's capacity equal to
// that depth and its length within it, on both backends and after an
// in-process LB move; and the deepest probe reaches the depth, so it is
// not an overestimate. Jacobi holds 5 frames (Seq, For, step Seq,
// Allreduce Seq, its start or wait), 4 with Overlap (the split
// reduction's halves are step statements), and BT-MZ without a
// reduction 4.
func TestFrameStackSizedFromTree(t *testing.T) {
	type row struct {
		name  string
		depth int // the program's depth, or 0 where a seed decides it
		build func(mode string) (*ampi.Job, error)
	}
	jacobi := func(overlap bool) func(string) (*ampi.Job, error) {
		return func(mode string) (*ampi.Job, error) {
			_, j, err := ampi.NewJacobi(ampi.JacobiConfig{
				Ranks: 64, Iters: 6, PEs: 4, Mode: mode, ReduceEvery: 2, Overlap: overlap,
				MigrateAt: 3, LB: loadbalance.RotateLB{}, StackSize: 32 << 10,
			})
			return j, err
		}
	}
	rows := []row{
		{"jacobi", 5, jacobi(false)},
		{"jacobi/overlap", 4, jacobi(true)},
		{"btmz", 4, func(mode string) (*ampi.Job, error) {
			m, err := core.NewMachine(core.Config{NumPEs: 4})
			if err != nil {
				return nil, err
			}
			return npb.ProgramJob(m, npb.Params{
				Class: npb.ClassA, NProcs: 16, NPEs: 4, Steps: 4, Mode: mode, LB: loadbalance.RotateLB{},
			})
		}},
	}
	for seed := int64(0); seed < 50; seed++ {
		size := 2 + int(seed)%11
		rows = append(rows, row{fmt.Sprintf("mix/seed%d", seed), 0, func(mode string) (*ampi.Job, error) {
			m, err := core.NewMachine(core.Config{NumPEs: 4})
			if err != nil {
				return nil, err
			}
			gates := map[int]loadbalance.Strategy{2: loadbalance.RotateLB{}}
			return ampi.NewProgram(m, size, ampi.Options{
				Mode: mode, StackSize: 32 << 10, LocalPUP: ampi.MixLocalPUP,
			}, ampi.BuildMix(seed, size, 6, make([]float64, size), gates))
		}})
	}
	for _, mode := range []string{ampi.ModeULT, ampi.ModeEvent} {
		for _, r := range rows {
			j, err := r.build(mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, mode, err)
			}
			var mu sync.Mutex
			deepest, bad := 0, ""
			var depth int
			depth = ampi.ProbeStacks(j, func(pc *ampi.PC, n, c int) {
				mu.Lock()
				defer mu.Unlock()
				deepest = max(deepest, n)
				if (c != depth || n > c) && bad == "" {
					bad = fmt.Sprintf("rank %d holds %d frames in a stack of capacity %d", pc.Rank(), n, c)
				}
			})
			j.Run()
			switch {
			case !j.Done():
				t.Fatalf("%s/%s: job did not complete", r.name, mode)
			case j.LBMoved() == 0:
				t.Errorf("%s/%s: the LB gate moved no rank", r.name, mode)
			case r.depth != 0 && depth != r.depth:
				t.Errorf("%s/%s: the tree is %d frames deep, want %d", r.name, mode, depth, r.depth)
			case bad != "":
				t.Errorf("%s/%s: %s, want capacity %d", r.name, mode, bad, depth)
			case deepest != depth:
				t.Errorf("%s/%s: the deepest statement ran at %d frames, but the stack is sized for %d", r.name, mode, deepest, depth)
			}
		}
	}
}
