package main

// The child half of the run protocol: `bench child -phase rep|setup|ref`
// runs one phase of one workload in this (fresh) process and prints a
// single RESULT line.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

const resultPrefix = "RESULT "

func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	phase := fs.String("phase", "rep", "rep (build + run), setup (build only), ref (reference route) or probe (the layer probes)")
	seed := fs.Int64("seed", 1, "input seed")
	toy := fs.Bool("toy", false, "smoke-test sizes")
	trace := fs.Bool("trace", false, "record benchmark-side spans")
	sabotage := fs.String("sabotage", "", "test hook: flipbit (corrupt the reported virtual time) or hang (never finish; shard workers hang after rendezvous)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r := newRec(*name, *seed, *toy, *trace)
	r.sabotage = *sabotage
	if *phase == "probe" {
		runAllProbes(r)
	} else {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		if r.sabotage == "hang" && !w.sharded {
			time.Sleep(time.Hour) // the parent's deadline must kill us
		}
		if err := runPhase(w, r, *phase); err != nil {
			r.fail("%v", err)
		}
	}
	out, err := json.Marshal(&r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s%s\n", resultPrefix, out)
	return 0
}

func runPhase(w *workload, r *rec, phase string) error {
	switch phase {
	case "ref":
		return r.span("reference", func() error { return w.ref(r) })
	case "setup":
		if w.sharded {
			return fmt.Errorf("sharded workloads have no set-up-only phase")
		}
		r.beginSetup()
		run, err := w.build(r)
		r.endSetup()
		runtime.KeepAlive(run) // the job must be live when endSetup measures it
		return err
	case "rep":
		return r.span("repetition", func() error {
			if !w.sharded {
				r.beginSetup()
			}
			run, err := w.build(r)
			if err != nil {
				return err
			}
			if w.sharded {
				return run() // the workers measure themselves
			}
			r.endSetup()
			r.beginRun()
			return run() // the body stops the run clock (endRun) before it digests outputs
		})
	}
	return fmt.Errorf("unknown phase %q", phase)
}
