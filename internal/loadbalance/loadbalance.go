// Package loadbalance implements the measurement-based load balancing
// of §4.5: the runtime measures each migratable object's (or AMPI
// thread's) consumed CPU time, a strategy computes a new
// object-to-processor assignment, and thread migration carries it
// out. Strategies mirror the classic Charm++ balancers: GreedyLB
// (global re-map, longest-processing-time-first), RefineLB (move
// objects off overloaded PEs only), and RotateLB (a correctness
// shaker that moves every object).
package loadbalance

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Item is one migratable unit in the load database.
type Item struct {
	ID   uint64  // stable identity (thread/chare id)
	PE   int     // current processor
	Load float64 // measured ns of work per step
}

// Plan maps item IDs to destination PEs; items absent from the map
// stay where they are.
type Plan map[uint64]int

// Strategy computes a Plan from the measured load database.
type Strategy interface {
	Name() string
	Plan(items []Item, numPEs int) Plan
}

// ByName returns the named strategy:
//
//   - "greedy": GreedyLB, global longest-processing-time-first re-map
//     over a PE min-heap — near-optimal balance, aggressive migration.
//   - "refine": RefineLB, moves items off overloaded PEs only.
//   - "rotate": RotateLB, shifts every item one PE (migration shaker).
//   - "commaware": CommAwareLB, trades load balance against measured
//     rank-to-rank traffic.
//   - "hier": HierarchicalLB, group-local greedy plus a top-level
//     refine over group aggregates — the decentralized scheme that
//     keeps LB-step cost from growing with machine size.
func ByName(name string) (Strategy, error) {
	switch name {
	case "greedy":
		return GreedyLB{}, nil
	case "refine":
		return RefineLB{Threshold: 1.05}, nil
	case "rotate":
		return RotateLB{}, nil
	case "commaware":
		// Alpha ≈ the interconnect's per-byte cost in ns (see
		// comm.DefaultLatency): a byte kept on-node is a nanosecond
		// of load the balancer may trade away.
		return CommAwareLB{Alpha: 4}, nil
	case "hier":
		return HierarchicalLB{}, nil
	}
	return nil, fmt.Errorf("loadbalance: unknown strategy %q", name)
}

// itemPool recycles measurement buffers so the per-epoch load walk
// (collect loads → plan → discard) stops allocating a fresh database
// every LB step.
var itemPool = sync.Pool{New: func() any { s := make([]Item, 0, 256); return &s }}

// AcquireItems returns an empty Item buffer with pooled capacity.
// Fill it, plan over it, then hand it back with ReleaseItems; no
// Strategy retains the slice after Plan returns.
func AcquireItems() *[]Item {
	p := itemPool.Get().(*[]Item)
	*p = (*p)[:0]
	return p
}

// ReleaseItems returns a buffer obtained from AcquireItems to the
// pool. The caller must not touch the slice afterwards.
func ReleaseItems(p *[]Item) {
	if p != nil {
		itemPool.Put(p)
	}
}

// PELoads sums item loads per PE under an optional plan.
func PELoads(items []Item, numPEs int, plan Plan) []float64 {
	loads := make([]float64, numPEs)
	for _, it := range items {
		pe := it.PE
		if plan != nil {
			if to, ok := plan[it.ID]; ok {
				pe = to
			}
		}
		loads[pe] += it.Load
	}
	return loads
}

// Imbalance returns max/avg PE load — 1.0 is perfect balance. An
// empty or zero-load set reports 1.0.
func Imbalance(loads []float64) float64 {
	var max, sum float64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 || len(loads) == 0 {
		return 1
	}
	avg := sum / float64(len(loads))
	return max / avg
}

// GreedyLB is the classic greedy balancer: assign items in
// descending-load order, each to the currently least-loaded PE. It
// produces near-optimal balance but ignores current placement, so it
// migrates aggressively. The least-loaded PE comes off a min-heap, so
// a plan costs O(n log P) instead of the seed's O(n·P) rescan — and
// because the heap breaks load ties by PE index exactly as the linear
// scan's strict-less did, the plans are bit-identical.
type GreedyLB struct{}

// Name implements Strategy.
func (GreedyLB) Name() string { return "greedy" }

// Plan implements Strategy.
func (GreedyLB) Plan(items []Item, numPEs int) Plan {
	if numPEs <= 0 {
		return Plan{}
	}
	sorted := sortedByLoadDesc(items)
	h := newPEHeap(numPEs, 0)
	plan := make(Plan, len(items))
	for _, it := range sorted {
		best := h.minPE()
		h.addToMin(it.Load)
		if best != it.PE {
			plan[it.ID] = best
		}
	}
	return plan
}

// sortedByLoadDesc copies items into descending-load order with
// deterministic ID tie-break — the assignment order every greedy
// variant consumes.
func sortedByLoadDesc(items []Item) []Item {
	sorted := append([]Item(nil), items...)
	slices.SortFunc(sorted, func(a, b Item) int {
		if a.Load != b.Load {
			if a.Load > b.Load {
				return -1
			}
			return 1
		}
		// Deterministic ties: lower ID first.
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	return sorted
}

// peHeap is a min-heap of (load, PE) pairs, load ties broken by lower
// PE index — the same PE the seed's first-strictly-smaller linear scan
// selected, which keeps heap plans identical to linear-scan plans.
type peHeap struct {
	load []float64
	pe   []int
}

// newPEHeap builds a heap over PEs [base, base+n) with zero loads.
// Ascending index order with equal loads is already heap-ordered.
func newPEHeap(n, base int) *peHeap {
	h := &peHeap{load: make([]float64, n), pe: make([]int, n)}
	for i := range h.pe {
		h.pe[i] = base + i
	}
	return h
}

// minPE returns the least-loaded PE (lowest index among ties).
func (h *peHeap) minPE() int { return h.pe[0] }

// addToMin adds load to the current minimum PE and restores heap
// order in O(log P). The sift-down is hand-rolled on the parallel
// arrays rather than going through container/heap: the interface
// Less/Swap calls per level dominate the whole plan at large P.
func (h *peHeap) addToMin(load float64) {
	l, p := h.load, h.pe
	l[0] += load
	n := len(p)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && (l[r] < l[c] || (l[r] == l[c] && p[r] < p[c])) {
			c = r
		}
		// Stop once the smaller child is not strictly less than the
		// sifted entry (load, then PE index — the linear scan's order).
		if l[c] > l[i] || (l[c] == l[i] && p[c] > p[i]) {
			break
		}
		l[i], l[c] = l[c], l[i]
		p[i], p[c] = p[c], p[i]
		i = c
	}
}

// RefineLB only moves items off PEs whose load exceeds Threshold ×
// average, preferring the smallest sufficient items — fewer
// migrations than GreedyLB at slightly worse balance.
type RefineLB struct {
	// Threshold is the overload ratio that triggers moves (e.g. 1.05
	// = 5% above average). Zero means 1.05.
	Threshold float64
}

// Name implements Strategy.
func (r RefineLB) Name() string { return "refine" }

// Plan implements Strategy: repeatedly move one item from the
// most-loaded PE to the least-loaded PE — preferring the largest item
// that fits under the threshold, falling back to the largest that
// still strictly improves the maximum — until the maximum is within
// threshold or no move helps.
func (r RefineLB) Plan(items []Item, numPEs int) Plan {
	if numPEs <= 0 || len(items) == 0 {
		return Plan{}
	}
	thresh := r.Threshold
	if thresh == 0 {
		thresh = 1.05
	}
	loads := PELoads(items, numPEs, nil)
	var total float64
	for _, l := range loads {
		total += l
	}
	avg := total / float64(numPEs)
	if avg == 0 {
		return Plan{}
	}
	// Working assignment, updated as items move.
	cur := make(map[uint64]int, len(items))
	perPE := make([][]Item, numPEs)
	for _, it := range items {
		cur[it.ID] = it.PE
		perPE[it.PE] = append(perPE[it.PE], it)
	}
	for pe := range perPE {
		sort.Slice(perPE[pe], func(i, j int) bool {
			if perPE[pe][i].Load != perPE[pe][j].Load {
				return perPE[pe][i].Load < perPE[pe][j].Load
			}
			return perPE[pe][i].ID < perPE[pe][j].ID
		})
	}
	for iter := 0; iter < 4*len(items); iter++ {
		maxPE, minPE := 0, 0
		for pe := 1; pe < numPEs; pe++ {
			if loads[pe] > loads[maxPE] {
				maxPE = pe
			}
			if loads[pe] < loads[minPE] {
				minPE = pe
			}
		}
		if loads[maxPE] <= thresh*avg || maxPE == minPE {
			break
		}
		donors := perPE[maxPE]
		pick := -1
		for i := len(donors) - 1; i >= 0; i-- { // largest first
			if loads[minPE]+donors[i].Load <= thresh*avg {
				pick = i
				break
			}
		}
		if pick == -1 {
			for i := len(donors) - 1; i >= 0; i-- {
				if loads[minPE]+donors[i].Load < loads[maxPE] {
					pick = i
					break
				}
			}
		}
		if pick == -1 {
			break // no move improves the maximum
		}
		it := donors[pick]
		perPE[maxPE] = append(donors[:pick], donors[pick+1:]...)
		loads[maxPE] -= it.Load
		loads[minPE] += it.Load
		cur[it.ID] = minPE
		// Keep the receiver's list sorted for future donations.
		j := sort.Search(len(perPE[minPE]), func(k int) bool {
			if perPE[minPE][k].Load != it.Load {
				return perPE[minPE][k].Load > it.Load
			}
			return perPE[minPE][k].ID > it.ID
		})
		perPE[minPE] = append(perPE[minPE], Item{})
		copy(perPE[minPE][j+1:], perPE[minPE][j:])
		perPE[minPE][j] = it
	}
	plan := make(Plan)
	for _, it := range items {
		if cur[it.ID] != it.PE {
			plan[it.ID] = cur[it.ID]
		}
	}
	return plan
}

// RotateLB moves every item to (PE+1) mod numPEs — useless for
// balance, invaluable for exercising migration machinery.
type RotateLB struct{}

// Name implements Strategy.
func (RotateLB) Name() string { return "rotate" }

// Plan implements Strategy.
func (RotateLB) Plan(items []Item, numPEs int) Plan {
	plan := make(Plan, len(items))
	if numPEs <= 1 {
		return plan
	}
	for _, it := range items {
		plan[it.ID] = (it.PE + 1) % numPEs
	}
	return plan
}
