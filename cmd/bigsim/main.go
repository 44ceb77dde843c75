// Bigsim regenerates Figure 11: BigSim simulation time per step for a
// fixed target machine across simulating-PE counts. The full paper
// configuration (200,000 target processors) is reachable with
// -x 63 -y 63 -z 51 (or -x 64 -y 56 -z 56); with -mode event it fits
// in a few hundred MB, since event-driven flows carry no stacks.
//
// -mode selects the execution backend for every target processor:
//
//	ult    one user-level thread (parked goroutine) per target — the
//	       paper's heavyweight-but-general flow (default)
//	event  each target is a state struct dispatched inline by its
//	       simulating PE — the paper's cheapest flow
//	both   run each PE count through both backends and print the
//	       ULT-vs-event comparison columns
//
// -footprint additionally reports per-flow resident bytes and
// goroutines for the selected backend(s).
//
// Usage: bigsim [-x 20 -y 20 -z 10] [-steps 5] [-pes 1,2,4,8,16,32,64]
// [-mode ult|event|both] [-agg] [-footprint]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"migflow/internal/bigsim"
	"migflow/internal/harness"
)

func main() {
	x := flag.Int("x", 20, "target torus X")
	y := flag.Int("y", 20, "target torus Y")
	z := flag.Int("z", 10, "target torus Z")
	steps := flag.Int("steps", 5, "MD timesteps")
	pes := flag.String("pes", "4,8,16,32,64", "comma-separated simulating PE counts")
	agg := flag.Bool("agg", false, "coalesce cross-PE ghost traffic into per-destination envelopes")
	mode := flag.String("mode", bigsim.ModeULT, "execution backend: ult, event, or both")
	footprint := flag.Bool("footprint", false, "report per-flow resident bytes and goroutines")
	flag.Parse()

	var counts []int
	for _, s := range strings.Split(*pes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad -pes entry %q: %v", s, err)
		}
		counts = append(counts, n)
	}
	var modes []string
	switch *mode {
	case bigsim.ModeULT, bigsim.ModeEvent:
		modes = []string{*mode}
		if _, err := harness.Figure11Backend(os.Stdout, *x, *y, *z, *steps, counts, *agg, *mode); err != nil {
			log.Fatal(err)
		}
	case "both":
		modes = []string{bigsim.ModeULT, bigsim.ModeEvent}
		if _, err := harness.Figure11Mode(os.Stdout, *x, *y, *z, *steps, counts, *agg); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("bad -mode %q: want ult, event, or both", *mode)
	}
	if *footprint {
		fmt.Printf("\nper-flow footprint (%dx%dx%d targets, %d simPEs, after one step):\n", *x, *y, *z, counts[0])
		for _, m := range modes {
			cfg := bigsim.DefaultConfig()
			cfg.X, cfg.Y, cfg.Z, cfg.SimPEs = *x, *y, *z, counts[0]
			cfg.Aggregate = *agg
			cfg.Mode = m
			bpf, gpf, err := harness.FlowFootprint(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-7s %5.2f goroutines/flow %10.0f B/flow\n", m+":", gpf, bpf)
		}
	}
	fmt.Println("\n(Figure 11 used 200,000 target processors on LeMieux; -x 63 -y 63 -z 51")
	fmt.Println(" reproduces that scale — with -mode event in ~64 B per target, where the")
	fmt.Println(" ULT backend needs a goroutine stack and a channel per target.)")
}
