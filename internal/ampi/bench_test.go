package ampi

import (
	"fmt"
	"testing"
)

// collBench drives b.N back-to-back collectives through one job and
// reports both wall time (ns/op) and modeled virtual time per
// collective (vns/op, from the machine's max PE clock).
func collBench(b *testing.B, ranks int, algo CollAlgo, op func(*Rank) error) {
	m := newMachine(b, 8, nil)
	j, err := NewJob(m, ranks, Options{Collectives: algo, MsgOverheadNs: 1000}, func(r *Rank) {
		for i := 0; i < b.N; i++ {
			if err := op(r); err != nil {
				b.Error(err)
				return
			}
		}
	})
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
	b.ReportMetric(m.MaxTime()/float64(b.N), "vns/op")
}

// BenchmarkCollBarrier A/Bs the flat rank-0 barrier against the k-ary
// tree at P ∈ {8, 64, 256} on 8 PEs. The vns/op metric shows the
// modeled win (root serialization is O(P) flat, O(k·log_k P) tree);
// ns/op shows the host-side cost of the extra tree phases. bench/
// runs tree collectives only, from event-mode Procs
// (ampi.allreduce_ns_per_rank): the flat algorithm and the thread API
// are timed nowhere else.
func BenchmarkCollBarrier(b *testing.B) {
	for _, algo := range []CollAlgo{CollFlat, CollTree} {
		for _, p := range []int{8, 64, 256} {
			name := fmt.Sprintf("%s/P%d", algoName(algo), p)
			b.Run(name, func(b *testing.B) {
				collBench(b, p, algo, func(r *Rank) error { return r.Barrier() })
			})
		}
	}
}

// BenchmarkCollAllreduce is the same A/B for a value-carrying
// collective.
func BenchmarkCollAllreduce(b *testing.B) {
	for _, algo := range []CollAlgo{CollFlat, CollTree} {
		for _, p := range []int{8, 64, 256} {
			name := fmt.Sprintf("%s/P%d", algoName(algo), p)
			b.Run(name, func(b *testing.B) {
				collBench(b, p, algo, func(r *Rank) error {
					_, err := r.Allreduce("sum", float64(r.Rank()))
					return err
				})
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
// HopNs per node-to-node hop a tree edge crosses. Both runs must
// produce the same reduction bits; the topo tree must cross fewer
// hops (reported as hops/op) and therefore finish in less virtual
// time (vns/op).
func BenchmarkCollTopoTree(b *testing.B) {
	topo := Topology{Nodes: 8, GroupSize: 4, HopNs: 2000}
	for _, p := range []int{64, 256} {
		var rankOrderHops float64
		for _, algo := range []CollAlgo{CollTree, CollTopoTree} {
			algo := algo
			b.Run(fmt.Sprintf("%s/P%d", algoName(algo), p), func(b *testing.B) {
				m := newMachine(b, 8, nil)
				j, err := NewJob(m, p, Options{
					Collectives: algo, MsgOverheadNs: 1000,
					Topo: topo, BlockPlacement: true,
				}, func(r *Rank) {
					for i := 0; i < b.N; i++ {
						v, err := r.Allreduce("max", float64(r.Rank()))
						if err != nil {
							b.Error(err)
							return
						}
						if v != float64(p-1) {
							b.Errorf("allreduce max = %g, want %d", v, p-1)
							return
						}
					}
				})
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
				hops := float64(m.Network().TopoHops()) / float64(b.N)
				b.ReportMetric(m.MaxTime()/float64(b.N), "vns/op")
				b.ReportMetric(hops, "hops")
				if algo == CollTopoTree {
					if !(hops < rankOrderHops) {
						b.Fatalf("topo tree crossed %.0f hops/op, rank-order %.0f — no win", hops, rankOrderHops)
					}
				} else {
					rankOrderHops = hops
				}
			})
		}
	}
}
