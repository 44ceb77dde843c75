package loadbalance

import (
	"math/rand"
	"sort"
	"testing"
)

// linearGreedyLB is the seed GreedyLB: identical assignment policy,
// but each item rescans all P PEs for the minimum — O(n·P). It is the
// reference implementation the heap version is property-tested and
// benchmarked against, and lives only in the tests.
type linearGreedyLB struct{}

// Name implements Strategy.
func (linearGreedyLB) Name() string { return "greedy-linear" }

// Plan implements Strategy. The body is the seed verbatim (including
// its sort.Slice), so benchmarks against it measure the real
// before/after of the heap rewrite.
func (linearGreedyLB) Plan(items []Item, numPEs int) Plan {
	if numPEs <= 0 {
		return Plan{}
	}
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Load != sorted[j].Load {
			return sorted[i].Load > sorted[j].Load
		}
		return sorted[i].ID < sorted[j].ID // deterministic ties
	})
	loads := make([]float64, numPEs)
	plan := make(Plan, len(items))
	for _, it := range sorted {
		best := 0
		for pe := 1; pe < numPEs; pe++ {
			if loads[pe] < loads[best] {
				best = pe
			}
		}
		loads[best] += it.Load
		if best != it.PE {
			plan[it.ID] = best
		}
	}
	return plan
}

// randomItems draws a load database with deliberate tie pressure: half
// the trials draw loads from a small integer set so equal loads (the
// heap/linear tie-break hazard) occur constantly.
func randomItems(rng *rand.Rand, n, numPEs int) []Item {
	items := make([]Item, n)
	ties := rng.Intn(2) == 0
	for i := range items {
		var load float64
		if ties {
			load = float64(rng.Intn(4)) * 100
		} else {
			load = rng.Float64() * 1000
		}
		items[i] = Item{ID: uint64(i), PE: rng.Intn(numPEs), Load: load}
	}
	return items
}

func plansEqual(a, b Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for id, to := range a {
		if b[id] != to {
			return false
		}
	}
	return true
}

// TestHeapGreedyMatchesLinear: the heap rewrite of GreedyLB must be a
// pure speedup — on random databases (including heavy load ties) it
// produces the exact plan of the preserved seed linear-scan
// implementation, hence also the same Imbalance.
func TestHeapGreedyMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		p := 1 + rng.Intn(64)
		items := randomItems(rng, n, p)
		heapPlan := GreedyLB{}.Plan(items, p)
		linPlan := linearGreedyLB{}.Plan(items, p)
		if !plansEqual(heapPlan, linPlan) {
			t.Fatalf("trial %d (n=%d p=%d): heap plan diverges from seed linear plan\nheap: %v\nlinear: %v",
				trial, n, p, heapPlan, linPlan)
		}
		hi := Imbalance(PELoads(items, p, heapPlan))
		li := Imbalance(PELoads(items, p, linPlan))
		if hi != li {
			t.Fatalf("trial %d (n=%d p=%d): imbalance heap %v != linear %v", trial, n, p, hi, li)
		}
	}
}

// TestStrategiesDeterministicAndInRange: every strategy under test
// must give byte-identical plans on repeated runs over the same
// database (LB steps must be reproducible) and never route an item to
// an out-of-range PE.
func TestStrategiesDeterministicAndInRange(t *testing.T) {
	strategies := []Strategy{
		GreedyLB{},
		linearGreedyLB{},
		HierarchicalLB{},
		HierarchicalLB{GroupSize: 3, Threshold: 1.02},
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		p := 1 + rng.Intn(64)
		items := randomItems(rng, n, p)
		for _, s := range strategies {
			first := s.Plan(items, p)
			for id, to := range first {
				if to < 0 || to >= p {
					t.Fatalf("trial %d: %s maps item %d to PE %d of %d", trial, s.Name(), id, to, p)
				}
			}
			again := s.Plan(items, p)
			if !plansEqual(first, again) {
				t.Fatalf("trial %d: %s nondeterministic over identical input (n=%d p=%d)",
					trial, s.Name(), n, p)
			}
		}
	}
}

// TestHierImprovesImbalance: on a skewed database the hierarchical
// plan must not be worse than leaving items in place, and on multi-
// group machines it should land near the global greedy balance.
func TestHierImprovesImbalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := 16 + rng.Intn(48)
		n := 4*p + rng.Intn(300)
		items := make([]Item, n)
		for i := range items {
			// Skew: everything starts on the first quarter of the PEs.
			items[i] = Item{ID: uint64(i), PE: rng.Intn(1 + p/4), Load: 1 + rng.Float64()*1000}
		}
		before := Imbalance(PELoads(items, p, nil))
		hier := Imbalance(PELoads(items, p, HierarchicalLB{}.Plan(items, p)))
		if hier > before {
			t.Fatalf("trial %d (n=%d p=%d): hier worsened imbalance %v -> %v", trial, n, p, before, hier)
		}
		greedy := Imbalance(PELoads(items, p, GreedyLB{}.Plan(items, p)))
		// The two-level scheme trades some balance for plan cost, but a
		// 4x-overweighted quarter must still get substantially flattened.
		if hier > 2*greedy && hier > 1.5 {
			t.Errorf("trial %d (n=%d p=%d): hier imbalance %v far off greedy %v", trial, n, p, hier, greedy)
		}
	}
}
