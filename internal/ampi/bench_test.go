package ampi

import (
	"fmt"
	"math"
	"testing"
)

// collBench drives b.N back-to-back collectives (step) through one job
// of ULT ranks on 8 PEs and reports both wall time (ns/op) and modeled
// virtual time per collective (vns/op, from the job's predicted time).
// It returns the topology hops the run charged per collective.
func collBench(b *testing.B, ranks int, opts Options, step Proc) (hops float64) {
	m := newMachine(b, 8, nil)
	j, err := NewProgram(m, ranks, opts, For(b.N, func(int) Proc { return step }))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	j.Run()
	b.StopTimer()
	if !j.Done() {
		b.Fatal("job deadlocked")
	}
	b.ReportMetric(j.PredictedNs()/float64(b.N), "vns/op")
	return float64(m.Network().TopoHops()) / float64(b.N)
}

// BenchmarkCollBarrier A/Bs the flat rank-0 barrier against the k-ary
// tree at P ∈ {8, 64, 256} on 8 PEs. The vns/op metric shows the
// modeled win (root serialization is O(P) flat, O(k·log_k P) tree);
// ns/op shows the host-side cost of the extra tree phases. bench/
// runs tree collectives only, from event-mode Procs
// (ampi.allreduce_ns_per_rank): the flat algorithm and ULT ranks'
// collectives are timed nowhere else.
func BenchmarkCollBarrier(b *testing.B) {
	for _, algo := range []CollAlgo{CollFlat, CollTree} {
		for _, p := range []int{8, 64, 256} {
			b.Run(fmt.Sprintf("%s/P%d", algoName(algo), p), func(b *testing.B) {
				collBench(b, p, Options{Collectives: algo, MsgOverheadNs: 1000}, Barrier())
			})
		}
	}
}

// BenchmarkCollAllreduce is the same A/B for a value-carrying
// collective.
func BenchmarkCollAllreduce(b *testing.B) {
	for _, algo := range []CollAlgo{CollFlat, CollTree} {
		for _, p := range []int{8, 64, 256} {
			b.Run(fmt.Sprintf("%s/P%d", algoName(algo), p), func(b *testing.B) {
				collBench(b, p, Options{Collectives: algo, MsgOverheadNs: 1000},
					Allreduce("sum", func(pc *PC) float64 { return float64(pc.Rank()) }, nil))
			})
		}
	}
}

func algoName(a CollAlgo) string {
	switch a {
	case CollFlat:
		return "flat"
	case CollTopoTree:
		return "topo"
	}
	return "tree"
}

// BenchmarkCollTopoTree A/Bs rank-order spanning trees against
// topology-aware ones on an 8-node torus (groups of 4), charging one
// HopNs per node-to-node hop a tree edge crosses into the ranks'
// predicted time. Both runs must produce the same reduction bits, and
// the topo tree must cross fewer hops (reported as hops/op). vns/op is
// the predicted critical path, which only the hops on it lengthen; it
// is reported, not asserted: the topo tree's wider root fan-in can
// outweigh its shorter edges there.
func BenchmarkCollTopoTree(b *testing.B) {
	topo := Topology{Nodes: 8, GroupSize: 4, HopNs: 2000}
	for _, p := range []int{64, 256} {
		var rankOrderHops float64
		var rankOrderBits []uint64
		for _, algo := range []CollAlgo{CollTree, CollTopoTree} {
			b.Run(fmt.Sprintf("%s/P%d", algoName(algo), p), func(b *testing.B) {
				bits := make([]uint64, p)
				hops := collBench(b, p, Options{
					Collectives: algo, MsgOverheadNs: 1000,
					Topo: topo, BlockPlacement: true,
				}, Allreduce("max", func(pc *PC) float64 { return float64(pc.Rank()) },
					func(pc *PC, v float64) { bits[pc.Rank()] = math.Float64bits(v) }))
				for r, got := range bits {
					if got != math.Float64bits(float64(p-1)) {
						b.Fatalf("rank %d: allreduce max = %g, want %d", r, math.Float64frombits(got), p-1)
					}
				}
				b.ReportMetric(hops, "hops")
				if algo == CollTree {
					rankOrderHops, rankOrderBits = hops, bits
					return
				}
				for r := range bits {
					if bits[r] != rankOrderBits[r] {
						b.Fatalf("rank %d: topo tree result %#x, rank-order %#x", r, bits[r], rankOrderBits[r])
					}
				}
				if !(hops < rankOrderHops) {
					b.Fatalf("topo tree crossed %.0f hops/op, rank-order %.0f — no win", hops, rankOrderHops)
				}
			})
		}
	}
}
