package ampi

import (
	"fmt"
	"math"
	"testing"
)

// topoJob builds an offline Job literal just big enough for collFamily
// and edgeHops().
func topoJob(n, k, nodes, gsize int, block bool) *Job {
	return &Job{
		size: n,
		opts: Options{
			Collectives:    CollTopoTree,
			TreeArity:      k,
			Topo:           Topology{Nodes: nodes, GroupSize: gsize},
			BlockPlacement: block,
		},
	}
}

// TestTopoFamilyShape checks the topology-aware tree is a well-formed
// spanning tree across sizes, arities, roots, node counts, group
// sizes, and both placements: every non-root has exactly one parent,
// parent/child views agree, and every rank reaches the root.
func TestTopoFamilyShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16, 33, 64} {
		for _, k := range []int{1, 2, 4} {
			for _, nodes := range []int{1, 2, 4, 7, 16} {
				for _, gsize := range []int{1, 2, 4} {
					for _, block := range []bool{false, true} {
						for _, root := range []int{0, 1, n - 1} {
							if root < 0 || root >= n {
								continue
							}
							j := topoJob(n, k, nodes, gsize, block)
							label := fmt.Sprintf("n=%d k=%d nodes=%d g=%d block=%v root=%d",
								n, k, nodes, gsize, block, root)
							parents := make(map[int]int)
							for i := 0; i < n; i++ {
								p, children := collFamily(nil, collBarrier, i, n, &j.opts, root)
								if i == root && p != -1 {
									t.Fatalf("%s: root has parent %d", label, p)
								}
								if i != root && (p < 0 || p >= n) {
									t.Fatalf("%s: rank %d parent %d out of range", label, i, p)
								}
								for _, c := range children {
									if c < 0 || c >= n || c == i {
										t.Fatalf("%s: rank %d has bad child %d", label, i, c)
									}
									if old, dup := parents[c]; dup {
										t.Fatalf("%s: rank %d has parents %d and %d", label, c, old, i)
									}
									parents[c] = i
								}
							}
							if len(parents) != n-1 {
								t.Fatalf("%s: %d edges, want %d", label, len(parents), n-1)
							}
							for c, p := range parents {
								gotP, _ := collFamily(nil, collBarrier, c, n, &j.opts, root)
								if gotP != p {
									t.Fatalf("%s: rank %d sees parent %d, parent list says %d", label, c, gotP, p)
								}
								cur, steps := c, 0
								for cur != root {
									next, ok := parents[cur]
									if !ok || steps > n {
										t.Fatalf("%s: rank %d not connected to root", label, c)
									}
									cur, steps = next, steps+1
								}
							}
						}
					}
				}
			}
		}
	}
}

// treeEdgeHops sums edgeHops over every tree edge of the given
// collective algorithm on j's topology.
func treeEdgeHops(j *Job, root int) int {
	total := 0
	for i := 0; i < j.size; i++ {
		p, _ := collFamily(nil, collBarrier, i, j.size, &j.opts, root)
		if p >= 0 {
			total += j.edgeHops(i, p)
		}
	}
	return total
}

// TestTopoHopsAtMostRankOrder is the hop-count property on torus
// layouts: for every configuration, the topology-aware tree's edges
// cross no more node-to-node hops than the rank-order tree's, and on
// multi-rank-per-node layouts strictly fewer somewhere.
func TestTopoHopsAtMostRankOrder(t *testing.T) {
	anyStrict := false
	for _, n := range []int{16, 48, 64, 100} {
		for _, nodes := range []int{4, 8, 16} {
			for _, gsize := range []int{2, 4} {
				for _, block := range []bool{false, true} {
					for _, root := range []int{0, 3} {
						topo := topoJob(n, 2, nodes, gsize, block)
						rankOrder := topoJob(n, 2, nodes, gsize, block)
						rankOrder.opts.Collectives = CollTree
						th := treeEdgeHops(topo, root)
						rh := treeEdgeHops(rankOrder, root)
						if th > rh {
							t.Errorf("n=%d nodes=%d g=%d block=%v root=%d: topo %d hops > rank-order %d",
								n, nodes, gsize, block, root, th, rh)
						}
						if th < rh {
							anyStrict = true
						}
					}
				}
			}
		}
	}
	if !anyStrict {
		t.Error("topology tree never beat rank-order on any layout")
	}
}

// TestTopoTreeCollectivesAgree runs the full collective set under the
// rank-order and the topology-aware tree — including a non-zero root
// — and demands bit-identical results. (Values are small integers,
// exact in float64, so combine-order differences cannot hide behind
// rounding.)
func TestTopoTreeCollectivesAgree(t *testing.T) {
	const ranks, root = 24, 5
	run := func(algo CollAlgo) []collOutcome {
		out := make([]collOutcome, ranks)
		runProg(t, 4, ranks, Options{
			Collectives: algo, TreeArity: 2, BlockPlacement: true,
			Topo: Topology{Nodes: 4, GroupSize: 2},
		}, collSet(root, "topo-vs-rank-order", out))
		return out
	}
	sameOutcomes(t, "topo", "rank-order", run(CollTopoTree), run(CollTree), root, 300)
}

// TestDirectCollectivesChargeNoHops pins the virtual time of Scatter
// and Alltoall under a torus topology, in both modes, to the values
// the per-rank generated programs they replaced produced: both send
// straight to their peers, so only the closing Allreduce's tree edges
// charge hops. A direct row that started charging hops would move
// every VT below and the hop count.
func TestDirectCollectivesChargeNoHops(t *testing.T) {
	want := []uint64{0x40e7d78000000000, 0x40ecdcc000000000, 0x40ec7f0000000000, 0x40ecbd8000000000,
		0x40ecdcc000000000, 0x40f0a2e000000000, 0x40f0c22000000000, 0x40f0f10000000000}
	const wantHops = 14
	chunks := func(pc *PC) [][]byte {
		c := make([][]byte, pc.Size())
		for i := range c {
			c[i] = f64bytes(float64(pc.Rank()*100 + i))
		}
		return c
	}
	prog := Seq(
		Do(func(pc *PC) { pc.Work(50 * float64(pc.Rank()+1)) }),
		Scatter(3, chunks, nil),
		Alltoall(chunks, nil),
		Allreduce("sum", func(pc *PC) float64 { return pc.VT() }, nil),
	)
	for _, mode := range []string{ModeULT, ModeEvent} {
		m := newMachine(t, 3, nil)
		job, err := NewProgram(m, len(want), Options{
			Mode: mode, Topo: Topology{Nodes: 4, GroupSize: 2}, MsgOverheadNs: 250, StackSize: 32 << 10,
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		job.Run()
		if !job.Done() {
			t.Fatalf("%s: job did not complete", mode)
		}
		for r, w := range want {
			if got := math.Float64bits(job.VT(r)); got != w {
				t.Errorf("%s: rank %d VT %#x, want %#x", mode, r, got, w)
			}
		}
		if got := m.Network().TopoHops(); got != wantHops {
			t.Errorf("%s: %d topology hops charged, want %d", mode, got, wantHops)
		}
	}
}

// TestTopoOptionValidation covers the new Options surface: negative
// topology fields are rejected, CollTopoTree defaults its node count
// to the PE count, and hop accounting stays off with a zero Topology.
func TestTopoOptionValidation(t *testing.T) {
	m := newMachine(t, 2, nil)
	if _, err := NewJob(m, 2, Options{Topo: Topology{Nodes: -1}}, func(*Rank) {}); err == nil {
		t.Error("negative Topo.Nodes accepted")
	}
	if _, err := NewJob(m, 2, Options{Topo: Topology{Nodes: 2, GroupSize: -3}}, func(*Rank) {}); err == nil {
		t.Error("negative Topo.GroupSize accepted")
	}
	// A defaulted CollTopoTree charges hops; a zero topology none.
	if _, m := runProg(t, 2, 4, Options{Collectives: CollTopoTree}, Barrier()); m.Network().TopoHops() == 0 {
		t.Error("defaulted CollTopoTree charged no hops")
	}
	if _, m := runProg(t, 2, 4, Options{}, Barrier()); m.Network().TopoHops() != 0 {
		t.Errorf("topology-blind job charged %d hops", m.Network().TopoHops())
	}
}
