// Package oskernel is a small simulated operating-system kernel: a
// process table, kernel threads, per-platform creation limits, and a
// sched_yield cost model charged to a virtual clock.
//
// It exists so the paper's kernel-mediated flow-of-control mechanisms
// (§2.1 processes, §2.2 kernel threads) can be implemented, limited
// and measured exactly like the user-level mechanisms, on platforms
// that no longer exist on any desk: the 2006 machines live on as
// internal/platform profiles, and this kernel enforces their limits
// (Table 2) and charges their context-switch costs (Figures 4-8).
package oskernel

import (
	"fmt"
	"sync"

	"migflow/internal/platform"
	"migflow/internal/simclock"
	"migflow/internal/vmem"
)

// Pid identifies a simulated process.
type Pid int

// Tid identifies a simulated kernel thread within a process.
type Tid int

// ErrLimit reports that a creation hit the platform's practical limit
// — the condition probed to regenerate Table 2.
type ErrLimit struct {
	Kind string // "process" or "kthread"
	Max  int
}

func (e *ErrLimit) Error() string {
	return fmt.Sprintf("oskernel: %s limit reached (%d)", e.Kind, e.Max)
}

// Kernel is one node's simulated kernel.
type Kernel struct {
	prof  *platform.Profile
	clock *simclock.Clock

	mu      sync.Mutex
	procs   map[Pid]*Process
	nextPid Pid
}

// New creates a kernel for the given platform charging costs to clock.
func New(prof *platform.Profile, clock *simclock.Clock) *Kernel {
	return &Kernel{prof: prof, clock: clock, procs: make(map[Pid]*Process), nextPid: 1}
}

// Profile returns the platform this kernel emulates.
func (k *Kernel) Profile() *platform.Profile { return k.prof }

// Clock returns the kernel's virtual clock.
func (k *Kernel) Clock() *simclock.Clock { return k.clock }

// Fork creates a new process with its own address space, charging the
// platform's process-creation cost, or fails with ErrLimit at the
// platform's practical process limit. On platforms without fork
// (BG/L, ASCI Red microkernels — §2.1) every Fork beyond the first
// process fails.
func (k *Kernel) Fork() (*Process, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.prof.ProcessControlsOK && len(k.procs) >= 1 {
		return nil, &ErrLimit{Kind: "process", Max: 1}
	}
	if lim := k.prof.MaxProcesses; lim.Bounded() && len(k.procs) >= lim.N {
		return nil, &ErrLimit{Kind: "process", Max: lim.N}
	}
	k.clock.Advance(k.prof.ProcCreate)
	p := &Process{
		k:       k,
		pid:     k.nextPid,
		space:   vmem.NewSpace(k.prof.VirtLimit),
		threads: make(map[Tid]*KThread),
	}
	k.nextPid++
	k.procs[p.pid] = p
	return p, nil
}

// Yield charges the cost a sched_yield-based microbenchmark observes
// for one context switch of the given mechanism kind with n runnable
// flows (see platform.MeasuredYieldCost for the IBM SP/Alpha
// artifact).
func (k *Kernel) Yield(kind string, n int) error {
	c, err := k.prof.MeasuredYieldCost(kind, n)
	if err != nil {
		return err
	}
	k.clock.Advance(c)
	return nil
}

// YieldRounds runs the Figure 4-8 microbenchmark in virtual time:
// rounds sweeps in which each of n flows yields once, and returns the
// observed nanoseconds per flow per context switch.
func (k *Kernel) YieldRounds(kind string, n, rounds int) (nsPerSwitch float64, err error) {
	if n <= 0 || rounds <= 0 {
		return 0, fmt.Errorf("oskernel: YieldRounds(%d flows, %d rounds): counts must be positive", n, rounds)
	}
	sw := simclock.NewStopwatch(k.clock)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if err := k.Yield(kind, n); err != nil {
				return 0, err
			}
		}
	}
	return sw.Elapsed() / float64(n*rounds), nil
}

// Process is one simulated process: an address space plus kernel
// threads. The initial thread is implicit (thread creation limits in
// Table 2 count extra pthreads).
type Process struct {
	k       *Kernel
	pid     Pid
	space   *vmem.Space
	exited  bool
	nextTid Tid
	threads map[Tid]*KThread
}

// Space returns the process's private simulated address space. All
// kernel threads of the process share it — the unintentional-sharing
// hazard of §2.2 is real here too.
func (p *Process) Space() *vmem.Space { return p.space }

// CreateThread creates a kernel thread in the process, charging the
// creation cost, or fails with ErrLimit at the platform's pthread
// limit. Platforms without pthreads (BG/L) always fail.
func (p *Process) CreateThread() (*KThread, error) {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	if p.exited {
		return nil, fmt.Errorf("oskernel: CreateThread on exited process %d", p.pid)
	}
	if !p.k.prof.KernelThreadsOK {
		return nil, &ErrLimit{Kind: "kthread", Max: 0}
	}
	if lim := p.k.prof.MaxKernelThreads; lim.Bounded() && len(p.threads) >= lim.N {
		return nil, &ErrLimit{Kind: "kthread", Max: lim.N}
	}
	p.k.clock.Advance(p.k.prof.KThreadCreate)
	t := &KThread{proc: p, tid: p.nextTid}
	p.nextTid++
	p.threads[t.tid] = t
	return t, nil
}

// Exit terminates the process, freeing its pid slot and all threads.
func (p *Process) Exit() {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	if p.exited {
		return
	}
	p.exited = true
	p.threads = make(map[Tid]*KThread)
	delete(p.k.procs, p.pid)
}

// KThread is a simulated kernel thread. It shares its process's
// address space; its scheduling costs are the platform's.
type KThread struct {
	proc *Process
	tid  Tid
}

// ProbeProcessLimit creates processes until Fork fails or cap is
// reached, then exits them all, returning how many succeeded. This is
// the Table 2 "maximum number of processes" probe.
func ProbeProcessLimit(k *Kernel, cap int) int {
	var made []*Process
	for len(made) < cap {
		p, err := k.Fork()
		if err != nil {
			break
		}
		made = append(made, p)
	}
	n := len(made)
	for _, p := range made {
		p.Exit()
	}
	return n
}

// ProbeThreadLimit creates kernel threads in one process until
// CreateThread fails or cap is reached — the Table 2 pthread probe.
func ProbeThreadLimit(k *Kernel, cap int) int {
	p, err := k.Fork()
	if err != nil {
		return 0
	}
	defer p.Exit()
	n := 0
	for n < cap {
		if _, err := p.CreateThread(); err != nil {
			break
		}
		n++
	}
	return n
}
