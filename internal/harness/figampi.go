package harness

import (
	"fmt"
	"io"

	"migflow/internal/ampi"
)

// JacobiModePoint is one JacobiMode row: the same AMPI Jacobi job run
// through both rank backends.
type JacobiModePoint struct {
	PEs         int
	RanksPE     int
	ULTStepNs   float64 // real wall clock per iteration, ULT ranks
	EventStepNs float64 // real wall clock per iteration, event ranks
	PredictedNs float64 // predicted target time of the whole run (mode-invariant)
}

// JacobiBackend runs the AMPI 1-D Jacobi workload in one mode across
// simulating-PE counts — the §4 flows question asked of AMPI itself
// rather than BigSim: what does it cost to give every MPI rank a
// user-level thread (stack + scheduler slot) versus an event-driven
// continuation record?
// migrateAt > 0 inserts one collective LB gate after that iteration
// (ULT ranks move as threads, event ranks as continuation records)
// and adds a moved-ranks column.
// overlap runs the split-phase schedule (halos and the pipelined
// residual Iallreduce fly under the relaxation work) instead of the
// blocking one — same cell values, lower predicted time.
func JacobiBackend(w io.Writer, ranks, iters int, peCounts []int, mode string, migrateAt int, overlap bool) error {
	flowDesc := "one ULT each"
	if mode == ampi.ModeEvent {
		flowDesc = "continuation records"
	}
	if overlap {
		flowDesc += ", split-phase overlap"
	}
	fmt.Fprintf(w, "AMPI Jacobi: wall time per iteration (%d ranks, %s)\n", ranks, flowDesc)
	fmt.Fprintf(w, "%8s %10s %14s %14s %8s\n", "simPEs", "ranks/PE", "step(ms)", "predicted(ms)", "moved")
	for _, p := range peCounts {
		if p > ranks {
			break
		}
		res, err := ampi.RunJacobi(ampi.JacobiConfig{
			Ranks: ranks, Iters: iters, PEs: p, Mode: mode,
			ReduceEvery: 4, BlockPlacement: true, Overlap: overlap,
			MigrateAt: migrateAt, WorkSkew: skewFor(migrateAt),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %10d %14.3f %14.3f %8d\n",
			p, ranks/p, res.StepWallNs/1e6, res.PredictedNs/1e6, res.Moved)
	}
	return nil
}

// skewFor enables a deterministic per-rank work gradient whenever a
// migration gate is requested, so the balancer has imbalance to fix.
func skewFor(migrateAt int) float64 {
	if migrateAt > 0 {
		return 2
	}
	return 0
}

// JacobiMode is the flows A/B applied to AMPI: every simulating-PE
// count runs the same Jacobi job through BOTH rank backends, the
// predicted target time is checked bit-identical between them (the
// flow mechanism must be invisible to the simulated program), and the
// table gains a ULT-vs-event column pair.
// migrateAt > 0 adds the same LB gate to both backends; the
// prediction stays bit-identical because migration never touches
// virtual time.
// overlap selects the split-phase schedule for both backends — the
// bit-identity requirement applies to it unchanged.
func JacobiMode(w io.Writer, ranks, iters int, peCounts []int, migrateAt int, overlap bool) ([]JacobiModePoint, error) {
	variant := ""
	if overlap {
		variant = ", split-phase overlap"
	}
	fmt.Fprintf(w, "AMPI Jacobi (flows A/B): ULT vs event-driven ranks (%d ranks, %d iterations%s)\n", ranks, iters, variant)
	fmt.Fprintf(w, "%8s %10s %14s %14s %10s %14s\n",
		"simPEs", "ranks/PE", "ult/step(ms)", "event/step(ms)", "ult/event", "predicted(ms)")
	var out []JacobiModePoint
	for _, p := range peCounts {
		if p > ranks {
			break
		}
		run := func(mode string) (ampi.JacobiResult, error) {
			return ampi.RunJacobi(ampi.JacobiConfig{
				Ranks: ranks, Iters: iters, PEs: p, Mode: mode,
				ReduceEvery: 4, BlockPlacement: true, Overlap: overlap,
				MigrateAt: migrateAt, WorkSkew: skewFor(migrateAt),
			})
		}
		ult, err := run(ampi.ModeULT)
		if err != nil {
			return nil, err
		}
		evt, err := run(ampi.ModeEvent)
		if err != nil {
			return nil, err
		}
		if ult.PredictedNs != evt.PredictedNs {
			return nil, fmt.Errorf("harness: Jacobi prediction diverged between rank backends: %g (ult) vs %g (event)",
				ult.PredictedNs, evt.PredictedNs)
		}
		if ult.Msgs != evt.Msgs {
			return nil, fmt.Errorf("harness: Jacobi message count diverged between rank backends: %d (ult) vs %d (event)",
				ult.Msgs, evt.Msgs)
		}
		fmt.Fprintf(w, "%8d %10d %14.3f %14.3f %9.2fx %14.3f\n",
			p, ranks/p, ult.StepWallNs/1e6, evt.StepWallNs/1e6,
			ult.StepWallNs/evt.StepWallNs, ult.PredictedNs/1e6)
		out = append(out, JacobiModePoint{
			PEs: p, RanksPE: ranks / p,
			ULTStepNs: ult.StepWallNs, EventStepNs: evt.StepWallNs,
			PredictedNs: ult.PredictedNs,
		})
	}
	return out, nil
}
