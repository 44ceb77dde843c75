package npb

import (
	"testing"

	"migflow/internal/ampi"
)

// BenchmarkBTMZOverlap is the split-phase A/B on the skewed graded
// class, per flow backend: the same zone job with the halo exchange
// blocking (off-ms) and split-phase with a pipelined residual
// Iallreduce (on-ms), under topology-aware collective trees. The
// overlapped schedule must beat the blocking one — a step costs
// max(solve, exchange) instead of their sum — and the hops metric
// records the torus hops the collective tree edges crossed.
func BenchmarkBTMZOverlap(b *testing.B) {
	class := GradedClass("Z256", 16, 16, 1<<17, 20, 50)
	for _, mode := range []string{ampi.ModeULT, ampi.ModeEvent} {
		b.Run(mode, func(b *testing.B) {
			base := Params{
				Class: class, NProcs: class.NumZones(), NPEs: 8,
				Steps: 12, Mode: mode, ReduceEvery: 4,
				Collectives: ampi.CollTopoTree,
				Topo:        ampi.Topology{Nodes: 8, GroupSize: 4},
			}
			var off, on *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if off, err = Run(base); err != nil {
					b.Fatal(err)
				}
				p := base
				p.Overlap = true
				if on, err = Run(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !(on.TimeNs < off.TimeNs) {
				b.Fatalf("overlap did not improve makespan: %.0f → %.0f ns", off.TimeNs, on.TimeNs)
			}
			if !(on.PredictedNs < off.PredictedNs) {
				b.Fatalf("overlap did not lower predicted time: %.0f → %.0f ns", off.PredictedNs, on.PredictedNs)
			}
			b.ReportMetric(off.TimeNs/1e6, "off-ms")
			b.ReportMetric(on.TimeNs/1e6, "on-ms")
			b.ReportMetric(float64(on.TopoHops), "hops")
		})
	}
}
