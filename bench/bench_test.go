package main

// Smoke-scale tests: every workload at toy size (about 256 flows, 2
// steps, 2 workers) through the same child-process path as a real
// run, with every equivalence check on. Run with `go test -C bench .`
// from the repository root.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"migflow/internal/comm"
	"migflow/internal/shard"
)

// TestMain lets the test binary play every role the bench binary
// does: shard worker (selected by environment) and child process.
func TestMain(m *testing.M) {
	if shard.WorkerMain() {
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func toyOptions(seed int64) options {
	return options{seed: seed, toy: true, deadline: 60 * time.Second}
}

// TestSmokeSet runs one toy set of all eight workloads and the traced
// repetitions with the layer probes.
func TestSmokeSet(t *testing.T) {
	rf := runSet(toyOptions(1), 1, true)
	if len(rf.Workloads) != 8 {
		t.Fatalf("%d workloads, want 8", len(rf.Workloads))
	}
	for _, wr := range rf.Workloads {
		if wr.Failed != 0 || wr.Attempted != 2 {
			t.Errorf("%s: attempted %d, failed %d: %v", wr.Name, wr.Attempted, wr.Failed, wr.Failures)
		}
		for _, d := range endToEnd {
			r := wr.EndToEnd[d.name]
			if r.N == 0 || !(r.Median > 0) || math.IsInf(r.Median, 0) {
				t.Errorf("%s: %s = %v (n=%d), want a positive number", wr.Name, d.name, r.Median, r.N)
			}
		}
		for _, d := range perLayer {
			v, ok := wr.Layer[d.name]
			if !ok && d.run {
				continue // a layer this workload never touches
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", wr.Name, d.name, v, ok)
			}
		}
		// Toy runs last a millisecond, so their shares scatter (0.2 to
		// 1.5 on identical runs): this only checks that a budget exists.
		// The 1.05 limit is checked where it can hold, on full-size sets
		// (overAttributed).
		if share := wr.Layer["budget.attributed_share"]; !(share > 0) || math.IsInf(share, 0) {
			t.Errorf("%s: budget.attributed_share = %.3f", wr.Name, share)
		}
	}
	if len(rf.Spans) == 0 {
		t.Error("traced set recorded no spans")
	}
	var buf bytes.Buffer
	printTable(&buf, rf)
	printLayers(&buf, rf)
	for _, want := range []string{"flow_steps_per_s", "vt_predicted_ms", "failed_share", "budget.attributed_share", "unattributed"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report does not mention %s", want)
		}
	}
}

// TestBrokenCheckFails flips one bit of the reported virtual time: the
// equivalence check must turn that into failed_share > 0.
func TestBrokenCheckFails(t *testing.T) {
	opt := toyOptions(1)
	opt.sabotage = "flipbit"
	run := &wlRun{w: workloadByName("jacobi_event_128k"), opt: opt}
	run.reference()
	run.repetition(false)
	wr := run.result()
	if wr.Failed != 1 || wr.EndToEnd["failed_share"].Median <= 0 {
		t.Fatalf("flipped VT bit went unnoticed: %+v", wr)
	}
	if !strings.Contains(strings.Join(wr.Failures, " "), "vt_predicted_ms bits") {
		t.Errorf("failure does not name the broken check: %v", wr.Failures)
	}
}

// TestOverAttribution: a budget that explains more than 105 % of a run
// span means a probe is wrong (or the run was disturbed) and is named.
func TestOverAttribution(t *testing.T) {
	rf := &resultFile{Workloads: []workloadResult{
		{Name: "fits", Layer: map[string]float64{"budget.attributed_share": 1.04}},
		{Name: "over", Layer: map[string]float64{"budget.attributed_share": 1.06}},
	}}
	if got := overAttributed(rf); len(got) != 1 || got[0] != "over" {
		t.Errorf("overAttributed = %v, want [over]", got)
	}
}

// TestDeadlineKills hangs the shard workers after rendezvous: the
// repetition must be killed at its deadline, count as failed, and
// leave neither a worker process nor a rendezvous directory behind —
// and touch no directory but its own.
func TestDeadlineKills(t *testing.T) {
	rendezvousDirs := func() map[string]bool {
		dirs, _ := filepath.Glob(filepath.Join(comm.ShmDir(), "migflow-shard-*"))
		set := map[string]bool{}
		for _, d := range dirs {
			set[d] = true
		}
		return set
	}
	// Another job's rendezvous directory, created while ours runs,
	// must survive the sweep.
	foreign, err := os.MkdirTemp(comm.ShmDir(), "migflow-shard-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(foreign)
	before := rendezvousDirs()
	opt := toyOptions(1)
	opt.sabotage, opt.deadline = "hang", time.Second
	run := &wlRun{w: workloadByName("shard_jacobi_shm"), opt: opt}
	run.ref = &repResult{} // the reference route is not under test
	t0 := time.Now()
	run.repetition(false)
	if el := time.Since(t0); el > 10*time.Second {
		t.Errorf("killing the repetition took %v", el)
	}
	if len(run.failures) != 1 || !strings.Contains(run.failures[0], "deadline") {
		t.Fatalf("hung repetition not counted as a deadline failure: %v", run.failures)
	}
	for d := range rendezvousDirs() {
		if !before[d] {
			t.Errorf("rendezvous directory %s left behind", d)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("the sweep removed another job's rendezvous directory: %v", err)
	}
	// No process may still carry the worker role in its environment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := workerProcesses()
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker processes left behind: %v", left)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// workerProcesses lists live processes spawned as shard workers.
func workerProcesses() []string {
	var left []string
	envs, _ := filepath.Glob("/proc/[0-9]*/environ")
	for _, path := range envs {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if bytes.Contains(data, []byte("MIGFLOW_SHARD_ROLE=worker")) {
			if stat, err := os.ReadFile(filepath.Join(filepath.Dir(path), "stat")); err == nil && !bytes.Contains(stat, []byte(") Z ")) {
				left = append(left, filepath.Dir(path))
			}
		}
	}
	return left
}

// TestSchema: the names the binary emits are exactly the ones
// BENCHMARK.json lists, within the contract's limits.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[kind+name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[kind+name] = true
	}
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary (2 to 8 allowed)", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the binary (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		checkName("metric", m.Name)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v differs from the binary's %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit, direction or bound: %+v", m.Name, d)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		checkName("metric", m.Name)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v differs from the binary's %+v", i, m, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, more than 64 KiB", len(data))
	}
}

// TestDriverLine: the acceptance driver's mode prints, last, one JSON
// object with exactly the contract's keys and every declared metric.
func TestDriverLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		stdout := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		code := driverMain(workloadByName("bigsim_event_200k"), toyOptions(3), 0.2, trace)
		w.Close()
		os.Stdout = stdout
		var out bytes.Buffer
		out.ReadFrom(r)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if code != 0 || len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
			t.Fatalf("exit %d, keys %v", code, res)
		}
		var metrics map[string]driverValue
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %v: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %v: metric %s = %+v (present %v)", trace, d.name, m, ok)
			}
		}
	}
}

// TestSeeds: the same seed repeats every exact metric and the virtual
// time to the bit; another seed changes the virtual time while every
// equivalence check still passes (TestSmokeSet covers seed 1, this
// covers 1 again and 2).
func TestSeeds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var reps [3]*repResult
		for j, seed := range []int64{1, 1, 2} {
			run := &wlRun{w: w, opt: toyOptions(seed)}
			run.reference()
			if reps[j] = run.repetition(false); reps[j] == nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, run.failures)
			}
		}
		a, b, c := reps[0], reps[1], reps[2]
		if a.VTBits != b.VTBits || a.Key != b.Key || a.Flows != b.Flows || a.FlowSteps != b.FlowSteps {
			t.Errorf("%s: the same seed gave different outputs: %+v vs %+v", w.name, a, b)
		}
		for _, d := range perLayer {
			if d.exact && a.Layer[d.name] != b.Layer[d.name] {
				t.Errorf("%s: exact metric %s differs across runs of one seed: %v vs %v", w.name, d.name, a.Layer[d.name], b.Layer[d.name])
			}
		}
		if w.name != "repro_full" && a.VTBits == c.VTBits {
			t.Errorf("%s: seeds 1 and 2 predict the same virtual time (%v ms)", w.name, a.VTms)
		}
		if a.Key == c.Key {
			t.Errorf("%s: seeds 1 and 2 give the same outputs", w.name)
		}
	}
}

// TestJacobiMessageCount: comm.msgs equals the closed form — two halos
// per rank per iteration, plus one message up and one down the
// spanning tree per non-root rank per Allreduce.
func TestJacobiMessageCount(t *testing.T) {
	for _, name := range []string{"jacobi_event_128k", "jacobi_ult_8k", "shard_jacobi_unix"} {
		run := &wlRun{w: workloadByName(name), opt: toyOptions(5)}
		run.reference()
		rep := run.repetition(false)
		if rep == nil {
			t.Fatalf("%s: %v", name, run.failures)
		}
		ranks, iters := float64(rep.Flows), float64(rep.Steps)
		reduces := rep.Layer["ampi.reduce_joins"] / ranks
		want := 2*ranks*iters + reduces*2*(ranks-1)
		if got := rep.Layer["comm.msgs"]; got != want {
			t.Errorf("%s: comm.msgs = %v, closed form %v (ranks %v, iters %v, reduces %v)", name, got, want, ranks, iters, reduces)
		}
	}
}

func TestVerdict(t *testing.T) {
	mk := func(better string, bound float64, vals ...float64) metricResult {
		return metricResult{Better: better, Bound: bound, summary: summarize(vals)}
	}
	cases := []struct {
		name string
		a, b metricResult
		want string
	}{
		{"within bound", mk("lower", 0.1, 1, 1.01, 0.99, 1, 1), mk("lower", 0.1, 1.05, 1.04, 1.06, 1.05, 1.05), "ok"},
		{"worse than bound", mk("lower", 0.1, 1, 1.01, 0.99, 1, 1), mk("lower", 0.1, 1.2, 1.21, 1.19, 1.2, 1.2), "regressed"},
		{"higher is better", mk("higher", 0.1, 10, 10, 10, 10, 10), mk("higher", 0.1, 8, 8, 8, 8, 8), "regressed"},
		{"noisy", mk("lower", 0.1, 1, 1.3, 0.7, 1, 1.2), mk("lower", 0.1, 1.3, 1, 1.1, 1.5, 0.9), "unresolved"},
		{"noisy but under the floor", metricResult{Better: "lower", Bound: 0.1, Floor: 1, summary: summarize([]float64{1, 1.3, 0.7, 1, 1.2})}, mk("lower", 0.1, 1.3, 1, 1.05, 1.5, 0.9), "ok"},
		{"worse than bound and floor", metricResult{Better: "lower", Bound: 0.1, Floor: 0.15, summary: summarize([]float64{1, 1.01, 0.99, 1, 1})}, mk("lower", 0.1, 1.2, 1.21, 1.19, 1.2, 1.2), "regressed"},
		{"noisy but every run better", mk("lower", 0.1, 1, 1.3, 0.7, 1, 1.2), mk("lower", 0.1, 0.5, 0.6, 0.4, 0.5, 0.65), "ok"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	exact := func(vals ...float64) metricResult { return metricResult{Exact: true, summary: summarize(vals)} }
	if got := verdict(exact(2.5, 2.5), exact(2.5, 2.5)); got != "ok" {
		t.Errorf("identical exact values: %q", got)
	}
	if got := verdict(exact(2.5, 2.5), exact(2.5, math.Nextafter(2.5, 3))); got != "regressed" {
		t.Errorf("exact values one bit apart: %q", got)
	}
}

// TestQuartiles pins the spread rule to Python's
// statistics.quantiles(values, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}

// TestDiffRoundTrip writes a toy result, reads it back and compares it
// with itself: every pair must be ok.
func TestDiffRoundTrip(t *testing.T) {
	run := &wlRun{w: workloadByName("bigsim_event_200k"), opt: toyOptions(1)}
	run.reference()
	for i := 0; i < 3; i++ {
		run.repetition(false)
	}
	rf := &resultFile{Meta: newMeta(run.opt, 3), Workloads: []workloadResult{run.result()}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, rf); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if regressed, _ := diffResults(&buf, rf, back); regressed != 0 {
		t.Errorf("a result regressed against itself:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "vt_predicted_ms") {
		t.Errorf("diff does not list vt_predicted_ms:\n%s", buf.String())
	}
}
