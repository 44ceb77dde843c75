package harness

// The split-phase overlap and topology-aware collective study: the
// same skewed BT-MZ zone job run with blocking and with split-phase
// (nonblocking) halo exchange + pipelined residual reduction, on both
// flow backends, plus the rank-order-vs-topology spanning-tree hop
// comparison. This is the table `flowbench -overlap` prints.

import (
	"fmt"
	"io"

	"migflow/internal/ampi"
	"migflow/internal/npb"
)

// OverlapPoint is one OverlapStudy row.
type OverlapPoint struct {
	Mode      string
	Overlap   bool
	TimeNs    float64 // modeled makespan (solve/comm overlapped when Overlap)
	CommNs    float64 // halo-exchange component
	Predicted float64 // virtual-time makespan (mode-invariant)
	Hops      uint64  // topology hops charged by collective tree edges
}

// overlapClass is the study's skewed zone grid: small enough for CI,
// graded 20:1 so the exchange is a visible fraction of each step.
var overlapClass = npb.GradedClass("Z256", 16, 16, 1<<17, 20, 50)

// OverlapStudy runs BT-MZ (one zone per rank, skewed 20:1) with the
// halo exchange blocking and split-phase, through both flow backends,
// under topology-aware collective trees. The split-phase schedule
// must win on this class — its exchange cost hides under the solve —
// and the study fails loudly if it does not, so regressions in the
// nonblocking path cannot ship silently.
func OverlapStudy(w io.Writer, steps, npes int) ([]OverlapPoint, error) {
	if steps < 4 {
		steps = 4
	}
	fmt.Fprintf(w, "BT-MZ split-phase overlap: %d zone-ranks on %d PEs, %d steps, reduce every 4\n",
		overlapClass.NumZones(), npes, steps)
	fmt.Fprintf(w, "%6s %8s %12s %12s %14s %8s\n",
		"mode", "overlap", "time(ms)", "comm(ms)", "predicted(ms)", "hops")
	var out []OverlapPoint
	for _, mode := range []string{ampi.ModeULT, ampi.ModeEvent} {
		var off *npb.Result
		for _, overlap := range []bool{false, true} {
			r, err := npb.Run(npb.Params{
				Class: overlapClass, NProcs: overlapClass.NumZones(), NPEs: npes,
				Steps: steps, Mode: mode, Overlap: overlap, ReduceEvery: 4,
				Collectives: ampi.CollTopoTree,
				Topo:        ampi.Topology{Nodes: npes, GroupSize: 4},
			})
			if err != nil {
				return nil, err
			}
			onOff := "off"
			if overlap {
				onOff = "on"
			}
			fmt.Fprintf(w, "%6s %8s %12.2f %12.2f %14.3f %8d\n",
				mode, onOff, r.TimeNs/1e6, r.CommNs/1e6, r.PredictedNs/1e6, r.TopoHops)
			out = append(out, OverlapPoint{
				Mode: mode, Overlap: overlap,
				TimeNs: r.TimeNs, CommNs: r.CommNs,
				Predicted: r.PredictedNs, Hops: r.TopoHops,
			})
			if overlap {
				if !(r.TimeNs < off.TimeNs) {
					return nil, fmt.Errorf("harness: overlap did not help in %s mode: %.2f ms on vs %.2f ms off",
						mode, r.TimeNs/1e6, off.TimeNs/1e6)
				}
				if !(r.PredictedNs < off.PredictedNs) {
					return nil, fmt.Errorf("harness: overlap did not lower predicted time in %s mode: %.3f ms on vs %.3f ms off",
						mode, r.PredictedNs/1e6, off.PredictedNs/1e6)
				}
				fmt.Fprintf(w, "%6s %8s   modeled speedup %.2fx, predicted %.2fx\n",
					"", "", off.TimeNs/r.TimeNs, off.PredictedNs/r.PredictedNs)
			} else {
				off = r
			}
		}
	}
	return out, nil
}

// TopoTreeStudy compares collective spanning trees built in rank
// order against topology-aware ones on the same torus/PE-group
// layout: the reduction result must be bit-identical while the
// topology tree crosses fewer node-to-node hops.
func TopoTreeStudy(w io.Writer, ranks, npes int) error {
	run := func(algo ampi.CollAlgo) (ampi.JacobiResult, error) {
		return ampi.RunJacobi(ampi.JacobiConfig{
			Ranks: ranks, Iters: 8, PEs: npes, ReduceEvery: 2,
			BlockPlacement: true,
			Collectives:    algo,
			Topo:           ampi.Topology{Nodes: npes, GroupSize: 4},
		})
	}
	rankOrder, err := run(ampi.CollTree)
	if err != nil {
		return err
	}
	topo, err := run(ampi.CollTopoTree)
	if err != nil {
		return err
	}
	if topo.Hops >= rankOrder.Hops {
		return fmt.Errorf("harness: topology tree crossed %d hops, rank-order %d — no win", topo.Hops, rankOrder.Hops)
	}
	fmt.Fprintf(w, "Collective spanning trees, %d ranks on %d nodes (groups of 4):\n", ranks, npes)
	fmt.Fprintf(w, "  %-12s %6d hops\n", "rank-order", rankOrder.Hops)
	fmt.Fprintf(w, "  %-12s %6d hops  (%.1f%% fewer, same reduction bits)\n",
		"topo-aware", topo.Hops, 100*(1-float64(topo.Hops)/float64(rankOrder.Hops)))
	return nil
}
