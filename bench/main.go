// Bench is migflow's one end-to-end benchmark: eight workloads over
// the whole stack, every end-to-end metric by name with unit, median
// and spread, outputs verified against a reference route, and — with
// -trace 1 — a per-layer budget from benchmark-side spans, exported
// counters and layer probes. See README.md.
//
// Usage (from the repository root; bench is its own module):
//
//	go run -C bench .                      one full set: 8 workloads x 5 repetitions
//	go run -C bench . -trace 1             the set plus the traced repetitions, probes and budget
//	go run -C bench . -workload NAME -seed N -seconds S -trace 0|1
//	                                       one workload, one JSON line last (BENCHMARK.json's contract)
//	go run -C bench . diff A.json B.json   compare two result files by each metric's bound
//	go run -C bench . selfcheck            two sets of the same code, then diff
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"migflow/internal/shard"
)

func main() {
	// A process spawned by shard.Run re-enters here as a worker.
	if shard.WorkerMain() {
		return
	}
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:])
		case "diff":
			return diffMain(args[1:])
		case "selfcheck":
			return selfcheckMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload only and print one JSON result line last (the acceptance driver's mode)")
	seed := fs.Int64("seed", 1, "input seed: perturbs generated inputs only")
	seconds := fs.Float64("seconds", 10, "with -workload: how long to measure")
	trace := fs.Int("trace", 0, "1 = also run the traced repetitions, the layer probes and the budget")
	out := fs.String("out", filepath.Join(".bench_build", "result.json"), "full set: where to write the JSON result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	opt := options{seed: *seed, deadline: childDeadline}
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return driverMain(w, opt, *seconds, *trace != 0)
	}
	rf := runSet(opt, setReps, *trace != 0)
	printTable(os.Stdout, rf)
	printLayers(os.Stdout, rf)
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeResult(*out, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresult written to %s\n", *out)
	for _, name := range overAttributed(rf) {
		fmt.Printf("warning: %s: the budget attributes more than %.0f %% of the run span: a probe over-attributes, or the run was disturbed\n", name, 100*maxAttributed)
	}
	return failedExit(rf)
}

// maxAttributed is the largest share of a run the budget may explain:
// count x probed unit cost well beyond the run span means a probe
// over-attributes and is wrong.
const maxAttributed = 1.05

// overAttributed lists the workloads whose budget exceeds
// maxAttributed. They are reported, not failed: where one term
// explains a whole run (BigSim's target step), the share is 1 give or
// take the sandbox's timing noise, which alone is 5-10 %.
func overAttributed(rf *resultFile) []string {
	var names []string
	for _, wr := range rf.Workloads {
		if wr.Layer["budget.attributed_share"] > maxAttributed {
			names = append(names, wr.Name)
		}
	}
	return names
}

func failedExit(rf *resultFile) int {
	for _, wr := range rf.Workloads {
		if wr.Failed > 0 {
			return 1
		}
	}
	return 0
}

// runSet is one full set: the reference route of every workload once,
// then reps timed repetitions each, interleaved round-robin across
// workloads so slow drift hits every workload alike. Each repetition
// is followed by a set-up-only child: set-up is short and scatters,
// and twice the samples cost a few seconds per set.
func runSet(opt options, reps int, trace bool) *resultFile {
	rf := &resultFile{Meta: newMeta(opt, reps)}
	runs := make([]*wlRun, len(workloads))
	for i := range workloads {
		runs[i] = &wlRun{w: &workloads[i], opt: opt}
		fmt.Fprintf(os.Stderr, "bench: %s: reference route\n", runs[i].w.name)
		runs[i].reference()
	}
	for rep := 0; rep < reps; rep++ {
		for _, run := range runs {
			fmt.Fprintf(os.Stderr, "bench: %s: repetition %d/%d\n", run.w.name, rep+1, reps)
			run.repetition(false)
			if !run.w.sharded {
				run.setupSample()
			}
		}
	}
	var probes map[string]float64
	if trace {
		for _, run := range runs {
			fmt.Fprintf(os.Stderr, "bench: %s: traced repetition\n", run.w.name)
			run.repetition(true)
		}
		fmt.Fprintln(os.Stderr, "bench: layer probes")
		probes = runProbes(opt)
	}
	for _, run := range runs {
		wr := run.result()
		if trace {
			wr.Layer, wr.Budget = run.layers(probes)
			if run.traced != nil {
				rf.Spans = append(rf.Spans, run.traced.Spans...)
			}
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	return rf
}

// driverResult is the one JSON object the acceptance driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain measures one workload and prints its result as the last
// line: every end-to-end metric untraced, every per-layer metric traced.
func driverMain(w *workload, opt options, seconds float64, trace bool) int {
	res := driverResult{Metrics: map[string]driverValue{}}
	var run *wlRun
	if trace {
		// One untraced repetition beside the traced one: their
		// difference is the tracing overhead.
		run = &wlRun{w: w, opt: opt}
		run.reference()
		run.repetition(false)
		run.repetition(true)
		layer, budget := run.layers(runProbes(opt))
		for _, d := range perLayer {
			res.Metrics[d.name] = driverValue{Value: layer[d.name], Unit: d.unit}
		}
		rf := &resultFile{Meta: newMeta(opt, 1), Workloads: []workloadResult{run.result()}}
		rf.Workloads[0].Layer, rf.Workloads[0].Budget = layer, budget
		printLayers(os.Stdout, rf)
	} else {
		run = measure(w, opt, seconds)
		rf := &resultFile{Meta: newMeta(opt, len(run.reps)), Workloads: []workloadResult{run.result()}}
		printTable(os.Stdout, rf)
		for _, d := range endToEnd {
			res.Metrics[d.name] = driverValue{Value: rf.Workloads[0].EndToEnd[d.name].Median, Unit: d.unit}
		}
	}
	res.Attempted, res.Failed = run.attempted, len(run.failures)
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func diffMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench diff A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	regressed, unresolved := diffResults(os.Stdout, a, b)
	fmt.Printf("\n%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// selfcheckMain runs two full sets of the same code back to back and
// compares them: the benchmark must agree with itself within its own
// bounds before it can judge anything else.
func selfcheckMain(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	dir := fs.String("dir", ".bench_build", "where to write the two result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{seed: *seed, deadline: childDeadline}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sets [2]*resultFile
	for i := range sets {
		sets[i] = runSet(opt, setReps, false)
		path := filepath.Join(*dir, fmt.Sprintf("selfcheck-%c.json", 'A'+i))
		if err := writeResult(path, sets[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	regressed, unresolved := diffResults(os.Stdout, sets[0], sets[1])
	fmt.Printf("\n%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 || unresolved > 0 || failedExit(sets[0]) != 0 || failedExit(sets[1]) != 0 {
		return 1
	}
	return 0
}
