// Btmz regenerates Figure 12: the NAS BT-MZ multi-zone benchmark with
// and without AMPI thread-migration load balancing, across the
// paper's problem classes and rank/PE configurations.
//
// Usage:
//
//	btmz [-steps 20] [-lb greedy] [-coll tree|flat|topo] [-overlap]
//	     [-reduce N] [-trace] [-mode ult|event] [-class Z4K] [-npes 8]
//
// -overlap makes the halo exchange split-phase (receives posted and
// halos sent before the solve, completed after it) and pipelines the
// residual reduction through Iallreduce — communication hides under
// compute. -coll topo builds the collective spanning trees along the
// torus/PE-group hierarchy instead of rank order and reports the
// logical hops the tree edges crossed.
//
// Every run executes the same zone-step program. Without -mode it runs
// in Figure 12's configuration: ULT ranks with privatized globals. With
// -mode ult|event it runs on the chosen flow backend, one zone per rank
// on the skewed class (-class, default Z4K), reported with and without
// the LB gate. Event mode is the configuration that scales past 10^5
// zones, moving 137-byte records instead of stacks; it refuses -trace,
// which needs threads.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"migflow/internal/ampi"
	"migflow/internal/harness"
	"migflow/internal/loadbalance"
	"migflow/internal/npb"
	"migflow/internal/trace"
)

func main() {
	steps := flag.Int("steps", 20, "solver timesteps")
	lbName := flag.String("lb", "greedy", "load balancer: greedy | refine | rotate | commaware | hier")
	showTrace := flag.Bool("trace", false, "print per-PE utilization traces for B.64,8PE")
	collName := flag.String("coll", "tree", "collective algorithm: tree | flat | topo")
	overlap := flag.Bool("overlap", false, "split-phase halo exchange: communication overlaps the solve")
	reduceEvery := flag.Int("reduce", 0, "residual-proxy Allreduce every N steps (0 = never; pipelined with -overlap)")
	mode := flag.String("mode", "", "flow backend for the one-zone-per-rank study: ult | event (empty = Figure 12's configuration: ULT ranks with privatized globals)")
	className := flag.String("class", "Z4K", "problem class for -mode runs: A | B | SP-A | LU-A | Z4K")
	npes := flag.Int("npes", 8, "PE count for -mode runs")
	flag.Parse()

	coll, err := parseColl(*collName)
	if err != nil {
		log.Fatal(err)
	}

	if *mode != "" {
		class, err := npb.ClassByName(*className)
		if err != nil {
			log.Fatal(err)
		}
		base := npb.Params{
			Class: class, NProcs: class.NumZones(), NPEs: *npes,
			Steps: *steps, Mode: *mode,
			Collectives: coll, Overlap: *overlap, ReduceEvery: *reduceEvery,
			Trace: *showTrace,
		}
		if err := programReport(base, *lbName); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *showTrace {
		traceReport(*steps, *lbName, coll)
		return
	}
	cfg := harness.Fig12Config{
		Coll: coll, Overlap: *overlap, ReduceEvery: *reduceEvery,
	}
	if *lbName != "greedy" {
		strat, err := loadbalance.ByName(*lbName)
		if err != nil {
			log.Fatal(err)
		}
		cfg.LB = strat
	}
	if _, err := harness.Figure12With(os.Stdout, *steps, cfg); err != nil {
		log.Fatal(err)
	}
}

// programReport runs the one-zone-per-rank program-mode study: the
// graded class without LB, then with the chosen strategy's gate.
func programReport(base npb.Params, lbName string) error {
	strat, err := loadbalance.ByName(lbName)
	if err != nil {
		return err
	}
	before, err := npb.Run(base)
	if err != nil {
		return err
	}
	with := base
	with.LB = strat
	after, err := npb.Run(with)
	if err != nil {
		return err
	}
	variant := ""
	if base.Overlap {
		variant = ", split-phase overlap"
	}
	fmt.Printf("%s — %d zone-ranks on %d PEs, %d steps%s\n", with.Label(), base.NProcs, base.NPEs, base.Steps, variant)
	fmt.Printf("  no LB:            %10.2f ms  (imbalance %.3f)\n", before.TimeNs/1e6, before.Imbalance)
	fmt.Printf("  with %-10s   %10.2f ms  (imbalance %.3f, moved %d ranks, %d B migrated)\n",
		strat.Name()+" LB:", after.TimeNs/1e6, after.Imbalance, after.MovedRanks, after.MigratedBytes)
	if after.TopoHops > 0 || before.TopoHops > 0 {
		fmt.Printf("  collective tree hops: %d (noLB) / %d (LB)\n", before.TopoHops, after.TopoHops)
	}
	if base.Trace {
		fmt.Println()
		printTrace(before.Params.Label()+" without LB", before)
		printTrace(with.Label()+" with "+strat.Name()+" LB", after)
	}
	return nil
}

func parseColl(name string) (ampi.CollAlgo, error) {
	switch name {
	case "tree":
		return ampi.CollTree, nil
	case "flat":
		return ampi.CollFlat, nil
	case "topo":
		return ampi.CollTopoTree, nil
	}
	return 0, fmt.Errorf("btmz: unknown -coll %q (want tree, flat, or topo)", name)
}

// traceReport prints per-PE utilization for the worst Figure 12 case
// with and without the chosen balancer — a Projections-style summary
// from the trace subsystem.
func traceReport(steps int, lbName string, coll ampi.CollAlgo) {
	strat, err := loadbalance.ByName(lbName)
	if err != nil {
		log.Fatal(err)
	}
	for _, withLB := range []bool{false, true} {
		p := npb.Params{
			Class: npb.ClassB, NProcs: 64, NPEs: 8, Steps: steps, Trace: true,
			Collectives: coll,
		}
		label := "without LB"
		if withLB {
			p.LB = strat
			label = "with " + strat.Name() + " LB"
		}
		r, err := npb.Run(p)
		if err != nil {
			log.Fatal(err)
		}
		printTrace("B.64,8PE "+label, r)
	}
}

// printTrace prints a traced run's per-PE utilization — a
// Projections-style summary from the trace subsystem — and its event
// counts.
func printTrace(title string, r *npb.Result) {
	fmt.Printf("%s — per-PE utilization (busy fraction of span):\n", title)
	for _, st := range trace.Utilization(r.Trace, r.Params.NPEs) {
		bar := strings.Repeat("#", int(st.Fraction()*40))
		fmt.Printf("  PE %d %6.1f%% %-40s (%d switches)\n", st.PE, st.Fraction()*100, bar, st.Switches)
	}
	c := r.Trace.Counts()
	fmt.Printf("  events: %d switches, %d migrations; modeled time %.1f ms\n\n",
		c[trace.EvSwitchIn], c[trace.EvMigrateOut], r.TimeNs/1e6)
}
