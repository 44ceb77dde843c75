// Package flows puts the paper's four flow-of-control mechanisms
// (§2: processes, kernel threads, user-level threads, event-driven
// objects) behind one interface so the evaluation harness can probe
// creation limits (Table 2) and run the yield microbenchmark
// (Figures 4-8) uniformly across platforms.
package flows

import (
	"fmt"

	"migflow/internal/oskernel"
	"migflow/internal/platform"
	"migflow/internal/simclock"
)

// Kind names a mechanism.
type Kind string

// The mechanisms of §2 (plus the AMPI migratable-thread variant
// measured alongside plain user-level threads in Figures 4-8).
const (
	KindProcess     Kind = "process"
	KindKThread     Kind = "kthread"
	KindUserThread  Kind = "uthread"
	KindAMPIThread  Kind = "ampi"
	KindEventObject Kind = "event"
)

// Kinds lists the mechanisms in figure-legend order.
func Kinds() []Kind {
	return []Kind{KindProcess, KindKThread, KindUserThread, KindAMPIThread, KindEventObject}
}

// Mechanism abstracts one flow-of-control implementation on one
// (simulated) platform.
type Mechanism interface {
	// Probe creates flows until creation fails or cap is reached and
	// returns how many were created (the Table 2 probe). All created
	// flows are destroyed before returning.
	Probe(cap int) int
	// BenchYield runs the Figure 4-8 microbenchmark: n flows each
	// yield once per round, for rounds rounds; it returns the
	// observed virtual nanoseconds per flow per context switch.
	BenchYield(n, rounds int) (float64, error)
}

// New builds the mechanism of the given kind on a fresh simulated
// kernel for the platform.
func New(kind Kind, prof *platform.Profile, clock *simclock.Clock) (Mechanism, error) {
	if clock == nil {
		clock = simclock.New()
	}
	k := oskernel.New(prof, clock)
	switch kind {
	case KindProcess:
		return &processMech{k: k}, nil
	case KindKThread:
		return &kthreadMech{k: k}, nil
	case KindUserThread:
		return &ultMech{k: k, kind: KindUserThread}, nil
	case KindAMPIThread:
		return &ultMech{k: k, kind: KindAMPIThread}, nil
	case KindEventObject:
		return &eventMech{k: k}, nil
	}
	return nil, fmt.Errorf("flows: unknown kind %q", kind)
}

// processMech: flows are OS processes created with fork() and
// yielding with sched_yield() (§4.1).
type processMech struct{ k *oskernel.Kernel }

func (m *processMech) Probe(cap int) int { return oskernel.ProbeProcessLimit(m.k, cap) }

func (m *processMech) BenchYield(n, rounds int) (float64, error) {
	procs := make([]*oskernel.Process, 0, n)
	defer func() {
		for _, p := range procs {
			p.Exit()
		}
	}()
	for i := 0; i < n; i++ {
		p, err := m.k.Fork()
		if err != nil {
			return 0, fmt.Errorf("flows: only %d of %d processes creatable: %w", i, n, err)
		}
		procs = append(procs, p)
	}
	return m.k.YieldRounds("process", n, rounds)
}

// kthreadMech: flows are pthreads in one process.
type kthreadMech struct{ k *oskernel.Kernel }

func (m *kthreadMech) Probe(cap int) int { return oskernel.ProbeThreadLimit(m.k, cap) }

func (m *kthreadMech) BenchYield(n, rounds int) (float64, error) {
	p, err := m.k.Fork()
	if err != nil {
		return 0, err
	}
	defer p.Exit()
	for i := 0; i < n; i++ {
		if _, err := p.CreateThread(); err != nil {
			return 0, fmt.Errorf("flows: only %d of %d kernel threads creatable: %w", i, n, err)
		}
	}
	return m.k.YieldRounds("kthread", n, rounds)
}

// ultMech: user-level threads — plain Cth (uthread) or migratable
// AMPI (isomalloc + privatization overhead). Creation is bounded by
// memory and the platform's practical ULT limit; the kernel is not
// involved in scheduling.
type ultMech struct {
	k    *oskernel.Kernel
	kind Kind
}

func (m *ultMech) Probe(cap int) int {
	lim := m.k.Profile().MaxUserThreads
	n := 0
	for n < cap {
		if lim.Bounded() && n >= lim.N {
			break
		}
		m.k.Clock().Advance(m.k.Profile().UThreadCreate)
		n++
	}
	return n
}

func (m *ultMech) BenchYield(n, rounds int) (float64, error) {
	if lim := m.k.Profile().MaxUserThreads; lim.Bounded() && n > lim.N {
		return 0, fmt.Errorf("flows: %d user threads exceed the platform limit %d", n, lim.N)
	}
	return m.k.YieldRounds(string(m.kind), n, rounds)
}

// eventMech: event-driven objects (§2.4) — suspending is a return,
// resuming is a function call; the "switch" is a scheduler dispatch.
type eventMech struct{ k *oskernel.Kernel }

func (m *eventMech) Probe(cap int) int {
	// Objects are plain data: bounded by memory only.
	return cap
}

func (m *eventMech) BenchYield(n, rounds int) (float64, error) {
	return m.k.YieldRounds("event", n, rounds)
}

// Curve runs BenchYield over a sweep of flow counts, returning one
// (flows, ns/switch) point per count — the series plotted in Figures
// 4-8. Counts that exceed the mechanism's platform limit are skipped
// (the paper's curves also stop at each mechanism's limit).
type Point struct {
	Flows      int
	NsPerYield float64
}

// Curve produces the figure series for one mechanism kind on prof.
func Curve(kind Kind, prof *platform.Profile, counts []int, rounds int) ([]Point, error) {
	var pts []Point
	for _, n := range counts {
		m, err := New(kind, prof, nil)
		if err != nil {
			return nil, err
		}
		ns, err := m.BenchYield(n, rounds)
		if err != nil {
			continue // beyond this mechanism's limit on this platform
		}
		pts = append(pts, Point{Flows: n, NsPerYield: ns})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("flows: no measurable points for %s on %s", kind, prof.Name)
	}
	return pts, nil
}
