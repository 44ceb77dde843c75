package main

// The parent half of the run protocol. Every repetition, reference
// run and probe set executes in a fresh child process of this binary:
// a user runs one job per process and pays heap growth every time,
// and in-process repeats hide that. Each child runs in its own
// process group under a wall deadline; on expiry the whole group
// (including shard workers) is killed and the repetition counts as
// failed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// childDeadline is the wall deadline of every child process.
	childDeadline = 120 * time.Second
	// setReps is the number of timed repetitions per workload in a
	// full set.
	setReps = 5
	// shardDirEnv is the variable shard.Run hands its rendezvous
	// directory to its workers in.
	shardDirEnv = "MIGFLOW_SHARD_DIR"
)

// options are the settings shared by every child of one invocation.
type options struct {
	seed     int64
	toy      bool
	deadline time.Duration
	sabotage string // test hook, forwarded to repetition children
}

// childProcs is the GOMAXPROCS every child runs with: never more
// runnable threads than cores, and at most the reference sandbox's 2.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// shardDirs returns the rendezvous directories (sockets, /dev/shm
// rings) of the shard workers in process group pgid. shard.Run names
// the directory in each worker's environment, so this finds exactly
// the group's own directories and never those of another job on the
// host.
func shardDirs(pgid int) []string {
	var dirs []string
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process has gone
		}
		// "pid (comm) state ppid pgrp ...": comm may hold spaces.
		f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
		if len(f) < 3 || f[2] != strconv.Itoa(pgid) {
			continue
		}
		env, _ := os.ReadFile(filepath.Join(filepath.Dir(path), "environ"))
		for _, kv := range bytes.Split(env, []byte{0}) {
			if dir, ok := bytes.CutPrefix(kv, []byte(shardDirEnv+"=")); ok {
				dirs = append(dirs, string(dir))
			}
		}
	}
	return dirs
}

// spawn runs one child to completion or to its deadline and decodes
// its RESULT line.
func spawn(opt options, args ...string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"child"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// reap kills what is left of the child's process group — shard
	// workers share it — and removes the rendezvous directories the
	// killed workers can no longer remove themselves.
	reap := func() {
		dirs := shardDirs(cmd.Process.Pid)
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(opt.deadline):
		reap()
		<-done
		return nil, fmt.Errorf("deadline of %v exceeded; process group killed", opt.deadline)
	}
	if werr != nil {
		reap() // a child that died may have left workers behind
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
			var res repResult
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return nil, fmt.Errorf("decoding child result: %w", err)
			}
			return &res, nil
		}
	}
	if werr != nil {
		return nil, fmt.Errorf("child failed without a result: %w", werr)
	}
	return nil, fmt.Errorf("child printed no result")
}

func (o options) childArgs(w *workload, phase string, trace bool) []string {
	args := []string{"-workload", w.name, "-phase", phase, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.toy {
		args = append(args, "-toy")
	}
	if trace {
		args = append(args, "-trace")
	}
	if o.sabotage != "" && phase == "rep" {
		args = append(args, "-sabotage", o.sabotage)
	}
	return args
}

// wlRun collects one workload's samples within one set of runs.
type wlRun struct {
	w   *workload
	opt options

	ref    *repResult // nil until the reference route has run
	refErr string

	reps   []*repResult // untraced repetitions that produced a result
	setups []*repResult // set-up-only samples
	traced *repResult

	attempted int
	failures  []string // one entry per failed repetition
}

// reference runs the workload's reference route once (untimed).
func (run *wlRun) reference() {
	res, err := spawn(run.opt, run.opt.childArgs(run.w, "ref", false)...)
	switch {
	case err != nil:
		run.refErr = err.Error()
	case len(res.Failed) > 0:
		run.refErr = strings.Join(res.Failed, "; ")
	default:
		run.ref = res
	}
}

// repetition runs one timed repetition and judges it: an operation
// fails on error, deadline, an incomplete job, or any equivalence
// check against the reference route.
func (run *wlRun) repetition(trace bool) *repResult {
	run.attempted++
	res, err := spawn(run.opt, run.opt.childArgs(run.w, "rep", trace)...)
	var why []string
	switch {
	case err != nil:
		why = append(why, err.Error())
	case run.ref == nil:
		why = append(why, "reference route failed: "+run.refErr)
	default:
		why = append(why, res.Failed...)
		if res.Key != run.ref.Key {
			why = append(why, fmt.Sprintf("equivalence key %s differs from the reference route's %s", res.Key, run.ref.Key))
		}
		if res.VTBits != run.ref.VTBits {
			why = append(why, fmt.Sprintf("vt_predicted_ms bits %x differ from the reference route's %x", res.VTBits, run.ref.VTBits))
		}
	}
	if len(why) > 0 {
		run.failures = append(run.failures, strings.Join(why, "; "))
		fmt.Fprintf(os.Stderr, "bench: %s: repetition failed: %s\n", run.w.name, strings.Join(why, "; "))
		return nil
	}
	if trace {
		run.traced = res
	} else {
		run.reps = append(run.reps, res)
	}
	return res
}

// setupSample constructs the job in a fresh process and exits: one
// more set_up_s / bytes_per_flow sample without paying for a run.
func (run *wlRun) setupSample() {
	res, err := spawn(run.opt, run.opt.childArgs(run.w, "setup", false)...)
	if err != nil || len(res.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up sample failed: %v %v\n", run.w.name, err, res)
		return
	}
	run.setups = append(run.setups, res)
}

// endToEndSamples returns each end-to-end metric's samples.
func (run *wlRun) endToEndSamples() map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range run.reps {
		s["wall_s"] = append(s["wall_s"], r.WallS)
		s["flow_steps_per_s"] = append(s["flow_steps_per_s"], r.FlowSteps/r.WallS)
		s["peak_rss_mb"] = append(s["peak_rss_mb"], r.PeakRSSMB)
		s["allocs_per_flow_step"] = append(s["allocs_per_flow_step"], float64(r.Mallocs)/r.FlowSteps)
	}
	for _, r := range append(append([]*repResult(nil), run.reps...), run.setups...) {
		s["setup_s"] = append(s["setup_s"], r.SetupS)
		s["bytes_per_flow"] = append(s["bytes_per_flow"], r.BytesPerFlow)
	}
	return s
}

// measure is the acceptance driver's protocol for one workload: the
// reference route once, then repetitions for about `seconds` of
// measuring (at least two, so that one disturbed repetition is not
// the result; another starts while half of it still fits), then
// set-up-only samples until there are three.
func measure(w *workload, opt options, seconds float64) *wlRun {
	run := &wlRun{w: w, opt: opt}
	run.reference()
	start := time.Now()
	for {
		t0 := time.Now()
		run.repetition(false)
		last := time.Since(t0).Seconds()
		if run.attempted >= 2 && time.Since(start).Seconds()+last/2 > seconds {
			break
		}
	}
	if !w.sharded && len(run.reps) > 0 {
		for n := len(run.reps); n < 3; n++ {
			run.setupSample()
		}
	}
	return run
}
