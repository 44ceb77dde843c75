package oskernel

import (
	"errors"
	"math"
	"testing"

	"migflow/internal/platform"
	"migflow/internal/simclock"
)

func newKernel(p *platform.Profile) *Kernel {
	return New(p, simclock.New())
}

func TestForkChargesAndAllocates(t *testing.T) {
	k := newKernel(platform.LinuxX86())
	p, err := k.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if p.Pid() != 1 {
		t.Errorf("first pid = %d, want 1", p.Pid())
	}
	if got := k.Clock().Now(); got != platform.LinuxX86().ProcCreate {
		t.Errorf("clock = %g, want ProcCreate %g", got, platform.LinuxX86().ProcCreate)
	}
	if p.Space() == nil {
		t.Fatal("process has no address space")
	}
	// 32-bit Linux profile caps the space at 3 GiB.
	if lim := p.Space().Limit(); lim != 3<<30 {
		t.Errorf("space limit = %d, want 3 GiB", lim)
	}
	q, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if q.Space() == p.Space() {
		t.Error("processes share an address space")
	}
	if k.NumProcesses() != 2 {
		t.Errorf("NumProcesses = %d, want 2", k.NumProcesses())
	}
	p.Exit()
	if k.NumProcesses() != 1 {
		t.Errorf("NumProcesses after Exit = %d, want 1", k.NumProcesses())
	}
	p.Exit() // idempotent
	if k.NumProcesses() != 1 {
		t.Error("double Exit changed the process table")
	}
}

func TestForkLimit(t *testing.T) {
	// IBM SP: ulimit of 100 processes per user (Table 2).
	k := newKernel(platform.IBMSP())
	if got := ProbeProcessLimit(k, 10000); got != 100 {
		t.Errorf("process probe = %d, want 100", got)
	}
	// After the probe exited them all, forking works again.
	if _, err := k.Fork(); err != nil {
		t.Errorf("Fork after probe: %v", err)
	}
}

func TestForkLimitError(t *testing.T) {
	k := newKernel(platform.IBMSP())
	for i := 0; i < 100; i++ {
		if _, err := k.Fork(); err != nil {
			t.Fatalf("Fork %d: %v", i, err)
		}
	}
	_, err := k.Fork()
	var le *ErrLimit
	if !errors.As(err, &le) || le.Kind != "process" || le.Max != 100 {
		t.Errorf("err = %v, want process ErrLimit(100)", err)
	}
}

func TestNoForkOnMicrokernels(t *testing.T) {
	k := newKernel(platform.BlueGeneL())
	if _, err := k.Fork(); err != nil {
		t.Fatalf("first process should exist even on BG/L: %v", err)
	}
	if _, err := k.Fork(); err == nil {
		t.Error("second Fork on BG/L should fail (no fork/exec)")
	}
}

func TestThreadLimit(t *testing.T) {
	// RH9 Linux: fewer than 256 pthreads per process (Table 2).
	k := newKernel(platform.LinuxX86())
	if got := ProbeThreadLimit(k, 10000); got != 250 {
		t.Errorf("thread probe = %d, want 250", got)
	}
}

func TestThreadLimitUnbounded(t *testing.T) {
	// Alpha allowed "90000+" kernel threads: probe caps out, no error.
	k := newKernel(platform.AlphaES45())
	if got := ProbeThreadLimit(k, 500); got != 500 {
		t.Errorf("unbounded thread probe hit a limit at %d", got)
	}
}

func TestNoPthreadsOnBGL(t *testing.T) {
	k := newKernel(platform.BlueGeneL())
	p, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.CreateThread()
	var le *ErrLimit
	if !errors.As(err, &le) || le.Kind != "kthread" {
		t.Errorf("CreateThread on BG/L: err = %v, want kthread ErrLimit", err)
	}
}

func TestThreadLifecycle(t *testing.T) {
	k := newKernel(platform.LinuxX86())
	p, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.CreateThread()
	if err != nil {
		t.Fatal(err)
	}
	if th.Process() != p {
		t.Error("thread's process wrong")
	}
	if p.NumThreads() != 1 {
		t.Errorf("NumThreads = %d, want 1", p.NumThreads())
	}
	p.Exit()
	if _, err := p.CreateThread(); err == nil {
		t.Error("CreateThread on exited process should fail")
	}
}

func TestYieldRoundsMatchesCurve(t *testing.T) {
	prof := platform.LinuxX86()
	k := newKernel(prof)
	const n, rounds = 64, 10
	per, err := k.YieldRounds("uthread", n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	want := prof.UThreadSwitch.At(n)
	if math.Abs(per-want) > 1e-6 {
		t.Errorf("ns/switch = %g, want %g", per, want)
	}
}

func TestYieldRoundsArtifact(t *testing.T) {
	prof := platform.AlphaES45()
	k := newKernel(prof)
	per, err := k.YieldRounds("process", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if per != prof.SyscallOverhead {
		t.Errorf("yield-ignored process switch = %g, want bare syscall %g", per, prof.SyscallOverhead)
	}
	ult, err := k.YieldRounds("uthread", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(per < ult) {
		t.Errorf("Figure 8 artifact missing: process %g should appear faster than ULT %g", per, ult)
	}
}

func TestYieldRoundsBadArgs(t *testing.T) {
	k := newKernel(platform.LinuxX86())
	if _, err := k.YieldRounds("uthread", 0, 1); err == nil {
		t.Error("zero flows should error")
	}
	if _, err := k.YieldRounds("warp", 1, 1); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestErrLimitString(t *testing.T) {
	if (&ErrLimit{Kind: "process", Max: 100}).Error() == "" {
		t.Error("empty error string")
	}
}

func TestThreadTid(t *testing.T) {
	k := newKernel(platform.LinuxX86())
	p, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.CreateThread()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.CreateThread()
	if err != nil {
		t.Fatal(err)
	}
	if a.Tid() == b.Tid() {
		t.Error("thread ids collide")
	}
}
