package loadbalance

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchItems builds a fixed-seed random load database: n items spread
// over numPEs with loads drawn from a heavy-tailed-ish mix so the
// greedy heap actually churns.
func benchItems(n, numPEs int) []Item {
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		load := rng.Float64() * 1e6
		if rng.Intn(10) == 0 {
			load *= 20 // occasional BT-MZ-style oversized zone
		}
		items[i] = Item{ID: uint64(i), PE: rng.Intn(numPEs), Load: load}
	}
	return items
}

// BenchmarkLBPlan A/Bs the planning cost of the heap greedy
// (O(n log P)) against the two-level hierarchical strategy at
// P ∈ {64, 256} × n ∈ {1k, 16k} items — the regime where HierarchicalLB
// loses (ROADMAP item 13 owes it a verdict). bench/ plans on 8 PEs
// only (loadbalance.plan_greedy_ms, loadbalance.plan_hier_ms).
func BenchmarkLBPlan(b *testing.B) {
	strategies := []struct {
		name string
		s    Strategy
	}{
		{"heap", GreedyLB{}},
		{"hier", HierarchicalLB{}},
	}
	for _, st := range strategies {
		for _, p := range []int{64, 256} {
			for _, n := range []int{1000, 16000} {
				items := benchItems(n, p)
				b.Run(fmt.Sprintf("%s/P%d/N%d", st.name, p, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						_ = st.s.Plan(items, p)
					}
				})
			}
		}
	}
}
