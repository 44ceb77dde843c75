// Package core assembles the whole simulated parallel machine: N PEs
// (each a converse scheduler over its own simulated address space and
// isomalloc slot), the location-independent network, and the thread
// migration engine, wired so a thread's MigrateTo moves its state
// through PUP across address spaces and its messages keep arriving.
//
// This is the runtime a user of the library boots first; everything
// in the paper's evaluation runs on top of a Machine.
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/mem"
	"migflow/internal/migrate"
	"migflow/internal/platform"
	"migflow/internal/simclock"
	"migflow/internal/swapglobal"
	"migflow/internal/trace"
	"migflow/internal/vmem"
)

// Config configures a Machine.
type Config struct {
	// NumPEs is the processor count (required, ≥ 1).
	NumPEs int
	// Platform profile; defaults to the Opteron cluster node.
	Platform *platform.Profile
	// Globals optionally declares the job's swap-global module.
	Globals *swapglobal.Layout
	// Latency is the interconnect model; defaults to
	// comm.DefaultLatency (Myrinet-class).
	Latency comm.LatencyModel
	// IsoSlotPages is each PE's isomalloc slot size in pages;
	// defaults to 16384 pages (64 MiB) per PE.
	IsoSlotPages uint64

	// Steal enables idle-cycle work stealing in RunParallel: a PE that
	// pumps its inbox and finds nothing probes two random victims and
	// takes half of the deeper ready queue before blocking on its wake
	// gate. Stolen threads are re-homed through the normal migration
	// path, so PUP, the location directory, and virtual-clock charging
	// all behave as in any other migration. Off by default: stealing
	// absorbs transient imbalance at idle cost only, but its timing is
	// wall-clock dependent, so deterministic runs (RunUntilQuiescent
	// and reproducible RunParallel figures) leave it disabled.
	Steal bool
	// StealAttempts bounds how many two-choice probes an idle PE makes
	// per idle episode before giving up and blocking; default 2.
	StealAttempts int

	// LocalPELo/LocalPEHi shard the machine across OS processes: this
	// process drives only PEs [LocalPELo, LocalPEHi) while the full
	// NumPEs-wide network directory and clock arrays stay global, so
	// entity IDs, placements, and virtual-time accounting are identical
	// to an unsharded run. Both zero (the default) means every PE is
	// local. A sharded machine needs a comm.Transport attached to its
	// network (see comm.LinkTransport) before traffic flows, and is
	// incompatible with work stealing — a remote PE's ready queue is in
	// another process.
	LocalPELo, LocalPEHi int
}

// DefaultStealAttempts is the idle-phase probe bound when
// Config.StealAttempts is zero.
const DefaultStealAttempts = 2

// DefaultIsoSlotPages is the per-PE isomalloc slot if unset.
const DefaultIsoSlotPages = 16384

// Machine is one booted parallel machine.
type Machine struct {
	cfg    Config
	pes    []*converse.PE
	net    *comm.Network
	layout *swapglobal.Layout

	mu         sync.Mutex
	migrations uint64
	migBytes   uint64

	// tlog, when enabled, receives scheduler and migration events.
	tlog *trace.Log

	// delivery is the fallback invoked for pumped messages whose
	// entity has no dedicated handler.
	delivery atomic.Pointer[func(pe int, msg *comm.Message)]
	// handlers routes pumped messages by destination entity
	// (registered by AMPI ranks, chare elements, ...). A sync.Map so
	// Pump's per-message lookup takes no lock: the table is
	// read-mostly — entities register once and are looked up on every
	// message by every PE concurrently.
	handlers sync.Map // comm.EntityID -> func(pe int, msg *comm.Message)

	// ranges routes pumped messages for dense entity-ID blocks that
	// share one handler (event-mode AMPI jobs: a million ranks, one
	// dispatch function). A copy-on-write slice — read with one atomic
	// load, rewritten under mu on the rare register/deregister; see
	// handlerOf for when it is consulted.
	ranges atomic.Pointer[[]entityRange]

	// idlePolls counts idle-handler iterations in RunParallel that
	// polled the network and found nothing — a liveness diagnostic: a
	// quiescent machine should block, not accumulate these.
	idlePolls atomic.Uint64

	// Work-stealing counters (see StealStats).
	stealAttempts atomic.Uint64
	stealHits     atomic.Uint64
	stealMoved    atomic.Uint64

	// gates holds one wake gate per PE while RunParallel is active.
	gates []*wakeGate
}

// NewMachine boots the machine: one address space, kernel heap,
// isomalloc slot, (optional) GOT and scheduler per PE, all agreeing
// on the isomalloc region, plus the network and migration wiring.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.NumPEs < 1 {
		return nil, fmt.Errorf("core: NumPEs %d must be ≥ 1", cfg.NumPEs)
	}
	if cfg.Platform == nil {
		cfg.Platform = platform.Opteron()
	}
	if cfg.Latency == (comm.LatencyModel{}) {
		cfg.Latency = comm.DefaultLatency
	}
	if cfg.IsoSlotPages == 0 {
		cfg.IsoSlotPages = DefaultIsoSlotPages
	}
	if cfg.LocalPELo == 0 && cfg.LocalPEHi == 0 {
		cfg.LocalPEHi = cfg.NumPEs
	}
	if cfg.LocalPELo < 0 || cfg.LocalPEHi > cfg.NumPEs || cfg.LocalPELo >= cfg.LocalPEHi {
		return nil, fmt.Errorf("core: local PE range [%d,%d) invalid for %d PEs", cfg.LocalPELo, cfg.LocalPEHi, cfg.NumPEs)
	}
	if cfg.Steal && (cfg.LocalPELo != 0 || cfg.LocalPEHi != cfg.NumPEs) {
		return nil, fmt.Errorf("core: work stealing is incompatible with a sharded machine")
	}
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase,
		uint64(cfg.NumPEs)*cfg.IsoSlotPages*vmem.PageSize, cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		net:    comm.NewNetwork(cfg.NumPEs, cfg.Latency),
		layout: cfg.Globals,
	}
	for i := 0; i < cfg.NumPEs; i++ {
		pe, err := converse.NewPE(converse.PEConfig{
			Index:     i,
			Profile:   cfg.Platform,
			Clock:     simclock.New(),
			IsoRegion: region,
			Globals:   cfg.Globals,
		})
		if err != nil {
			return nil, fmt.Errorf("core: booting PE %d: %w", i, err)
		}
		m.pes = append(m.pes, pe)
	}
	for i, pe := range m.pes {
		i, pe := i, pe
		pe.Sched.SetMigrateHandler(func(t *converse.Thread, dest int) {
			if err := m.migrateThread(t, i, dest); err != nil {
				panic(fmt.Sprintf("core: migrating thread %d from PE %d to %d: %v", t.ID(), i, dest, err))
			}
		})
	}
	return m, nil
}

// NumPEs returns the processor count.
func (m *Machine) NumPEs() int { return len(m.pes) }

// Sharded reports whether this machine drives only a subset of its
// PEs (other subsets live in other OS processes).
func (m *Machine) Sharded() bool {
	return m.cfg.LocalPELo != 0 || m.cfg.LocalPEHi != len(m.pes)
}

// LocalPE reports whether PE pe is driven by this process.
func (m *Machine) LocalPE(pe int) bool {
	return pe >= m.cfg.LocalPELo && pe < m.cfg.LocalPEHi
}

// PE returns processor i.
func (m *Machine) PE(i int) *converse.PE { return m.pes[i] }

// Network returns the machine's interconnect.
func (m *Machine) Network() *comm.Network { return m.net }

// Layout returns the job's swap-global module layout (may be nil).
func (m *Machine) Layout() *swapglobal.Layout { return m.layout }

// MaxTime returns the maximum virtual time across PE clocks — the
// parallel execution time of the job so far.
func (m *Machine) MaxTime() float64 {
	var max float64
	for _, pe := range m.pes {
		if t := pe.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// EnableTracing attaches a fresh event log to every PE and returns
// it. Call before running threads.
func (m *Machine) EnableTracing() *trace.Log {
	l := trace.New()
	m.mu.Lock()
	m.tlog = l
	m.mu.Unlock()
	for _, pe := range m.pes {
		pe.Trace = l
	}
	return l
}

// MigrationStats returns (migrations performed, total serialized
// bytes moved).
func (m *Machine) MigrationStats() (count, bytes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations, m.migBytes
}

// SetDeliveryHandler registers the fallback function Pump calls for
// arriving messages without a per-entity handler.
func (m *Machine) SetDeliveryHandler(fn func(pe int, msg *comm.Message)) {
	if fn == nil {
		m.delivery.Store(nil)
		return
	}
	m.delivery.Store(&fn)
}

// RegisterEntity places a communication entity on a PE and routes its
// incoming messages to handler. AMPI ranks and chare elements live in
// this directory; migration keeps it current.
func (m *Machine) RegisterEntity(id comm.EntityID, pe int, handler func(pe int, msg *comm.Message)) error {
	if err := m.net.Register(id, pe); err != nil {
		return err
	}
	m.handlers.Store(id, handler)
	return nil
}

// DeregisterEntity removes an entity and its handler.
func (m *Machine) DeregisterEntity(id comm.EntityID) {
	m.net.Deregister(id)
	m.handlers.Delete(id)
}

// entityRange is one dense ID block sharing a handler: [lo, hi].
type entityRange struct {
	lo, hi  comm.EntityID
	handler func(pe int, msg *comm.Message)
}

// RegisterEntityRange routes pumped messages for every entity in
// [lo, hi] (inclusive) through handler. It does NOT touch the network
// directory — the caller registers the entities' locations (usually
// with comm's RegisterRange). One range entry replaces what would be
// hi-lo+1 sync.Map entries and closures for a large event-mode job.
func (m *Machine) RegisterEntityRange(lo, hi comm.EntityID, handler func(pe int, msg *comm.Message)) error {
	if hi < lo {
		return fmt.Errorf("core: RegisterEntityRange(%d, %d): empty range", lo, hi)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var next []entityRange
	if old := m.ranges.Load(); old != nil {
		for _, r := range *old {
			if lo <= r.hi && r.lo <= hi {
				return fmt.Errorf("core: entity range [%d, %d] overlaps [%d, %d]", lo, hi, r.lo, r.hi)
			}
		}
		next = append(next, *old...)
	}
	next = append(next, entityRange{lo: lo, hi: hi, handler: handler})
	m.ranges.Store(&next)
	return nil
}

// DeregisterEntityRange removes the range handler registered at
// exactly [lo, hi]. Directory entries are, symmetrically, the
// caller's to remove.
func (m *Machine) DeregisterEntityRange(lo, hi comm.EntityID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.ranges.Load()
	if old == nil {
		return
	}
	next := make([]entityRange, 0, len(*old))
	for _, r := range *old {
		if r.lo == lo && r.hi == hi {
			continue
		}
		next = append(next, r)
	}
	m.ranges.Store(&next)
}

// NumEntityRanges returns how many range handlers are installed — a
// footprint diagnostic (a finished event-mode job removes its range).
func (m *Machine) NumEntityRanges() int {
	if rs := m.ranges.Load(); rs != nil {
		return len(*rs)
	}
	return 0
}

// rangeHandler returns the range handler covering id, or nil.
func (m *Machine) rangeHandler(id comm.EntityID) func(pe int, msg *comm.Message) {
	if rs := m.ranges.Load(); rs != nil {
		for _, r := range *rs {
			if r.lo <= id && id <= r.hi {
				return r.handler
			}
		}
	}
	return nil
}

// migrateThread executes one migration: PUP round trip between the
// address spaces, ownership transfer, directory update, and network
// cost charging (the image crosses the interconnect).
func (m *Machine) migrateThread(t *converse.Thread, src, dest int) error {
	if dest < 0 || dest >= len(m.pes) {
		return fmt.Errorf("core: destination PE %d out of range", dest)
	}
	nbytes, err := migrate.MigrateNow(t, m.pes[src], m.pes[dest], m.layout)
	if err != nil {
		return err
	}
	return m.finishMigration(comm.EntityID(t.ID()), src, dest, nbytes)
}

// finishMigration is the machine-level bookkeeping shared by every
// migration path (self-initiated, external, bulk, record): the image
// crossed the network, so charge the postal model and synchronize the
// destination clock, forward the flow's communication endpoint if
// registered, and account stats and trace events. Directly addressed
// (pinned) ids live in range location tables whose entries the owning
// engine updates in one batch per LB step — the per-entity
// MigrateEntity path would refuse them, and is skipped.
func (m *Machine) finishMigration(id comm.EntityID, src, dest, nbytes int) error {
	cost := m.net.Latency().Cost(nbytes)
	arrive := m.pes[src].Clock.Now() + cost
	m.pes[dest].Clock.AdvanceTo(arrive)
	if !id.Pinned() {
		if _, err := m.net.Locate(id); err == nil {
			if err := m.net.MigrateEntity(id, dest); err != nil {
				return err
			}
		}
	}
	m.mu.Lock()
	m.migrations++
	m.migBytes += uint64(nbytes)
	tlog := m.tlog
	m.mu.Unlock()
	if tlog != nil {
		tlog.Record(trace.Event{TimeNs: m.pes[src].Clock.Now(), PE: src, Kind: trace.EvMigrateOut, Thread: uint64(id), Arg: uint64(dest)})
		tlog.Record(trace.Event{TimeNs: arrive, PE: dest, Kind: trace.EvMigrateIn, Thread: uint64(id), Arg: uint64(nbytes)})
	}
	return nil
}

// FinishRemoteMigration charges the machine-level bookkeeping for a
// migration record that arrived from another OS process (sharded
// runs): the image crossed the interconnect from a PE this process
// does not simulate, so the sender ships its clock reading (departNs)
// inside the record and the destination clock synchronizes against
// departure plus the postal cost of the record's bytes — the same
// model finishMigration applies in-process. Directory updates are the
// shard layer's job (range tables flip by batch on every worker).
func (m *Machine) FinishRemoteMigration(id comm.EntityID, dest int, departNs float64, nbytes int) {
	cost := m.net.Latency().Cost(nbytes)
	arrive := departNs + cost
	m.pes[dest].Clock.AdvanceTo(arrive)
	m.mu.Lock()
	m.migrations++
	m.migBytes += uint64(nbytes)
	tlog := m.tlog
	m.mu.Unlock()
	if tlog != nil {
		tlog.Record(trace.Event{TimeNs: arrive, PE: dest, Kind: trace.EvMigrateIn, Thread: uint64(id), Arg: uint64(nbytes)})
	}
}

// Pump drains PE pe's network inbox through the delivery handler,
// advancing the PE clock to each message's arrival time. It returns
// the number of messages processed.
// Pump does NOT advance the PE clock: a message's arrival time is
// charged when it is *consumed* (AMPI Recv, chare dispatch), not when
// the transport hands it over — otherwise a fast sender's timestamp
// would serialize a receiver that still has independent work to do.
func (m *Machine) Pump(pe int) int {
	ep := m.net.Endpoint(pe)
	n := 0
	for {
		msg := ep.Poll()
		if msg == nil {
			return n
		}
		if fn := m.handlerOf(msg.To); fn != nil {
			fn(pe, msg)
		}
		n++
	}
}

// handlerOf resolves a pumped message's handler: the entity's own,
// else the range handler covering it, else the delivery fallback. A
// pinned id is tried against the ranges first — event-mode ranks are
// pinned ids in one range, and looking there first spares every one of
// their deliveries a miss in the per-entity map; a pinned id outside
// every range still finds the handler RegisterEntity gave it.
func (m *Machine) handlerOf(id comm.EntityID) func(pe int, msg *comm.Message) {
	if id.Pinned() {
		if rh := m.rangeHandler(id); rh != nil {
			return rh
		}
	}
	if h, ok := m.handlers.Load(id); ok {
		return h.(func(int, *comm.Message))
	}
	if rh := m.rangeHandler(id); rh != nil {
		return rh
	}
	if p := m.delivery.Load(); p != nil {
		return *p
	}
	return nil
}

// RunUntilQuiescent drives all PEs deterministically from one
// goroutine: round-robin each scheduler to idle and pump the network,
// until no PE has ready threads and no messages are in flight.
// Suspended threads may remain (they are not work).
func (m *Machine) RunUntilQuiescent() {
	for {
		progress := false
		for i := m.cfg.LocalPELo; i < m.cfg.LocalPEHi; i++ {
			pe := m.pes[i]
			if m.Pump(i) > 0 {
				progress = true
			}
			if pe.Sched.ReadyLen() > 0 {
				pe.Sched.RunUntilIdle()
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// RunParallel runs every PE scheduler in its own goroutine — the
// wall-clock execution mode. An idle PE pumps its inbox once and, if
// nothing arrived and nothing became runnable, blocks on its wake
// gate; message delivery, thread enqueues, and termination all fire
// the gate, so idle PEs consume no CPU instead of spinning. When
// done() reports true, all schedulers stop and RunParallel returns.
//
// done is called concurrently and must be thread-safe. It is
// re-evaluated whenever a PE goes idle or is woken; if it flips from
// a goroutine outside the machine (not a thread body or message
// handler), call Wake so blocked PEs notice.
func (m *Machine) RunParallel(done func() bool) {
	gates := make([]*wakeGate, len(m.pes))
	for i := m.cfg.LocalPELo; i < m.cfg.LocalPEHi; i++ {
		gates[i] = newWakeGate()
	}
	m.mu.Lock()
	m.gates = gates
	m.mu.Unlock()
	wakeAll := func() {
		for _, g := range gates {
			if g != nil {
				g.wake()
			}
		}
	}
	var wg sync.WaitGroup
	for i := m.cfg.LocalPELo; i < m.cfg.LocalPEHi; i++ {
		i, pe := i, m.pes[i]
		ep := m.net.Endpoint(i)
		ep.SetWakeHook(gates[i].wake)
		pe.Sched.SetWakeHook(gates[i].wake)
		// Steal RNG: one per PE goroutine (only this PE's idle handler
		// touches it), deterministically seeded by PE index so victim
		// sequences are reproducible given an interleaving.
		rng := rand.New(rand.NewSource(int64(i)*0x9E3779B9 + 1))
		pe.Sched.SetIdleHandler(func() bool {
			// Snapshot the gate BEFORE checking for work: any wake
			// that fires after this point re-opens the channel we
			// block on, so a delivery racing with the checks below
			// cannot be lost.
			ch := gates[i].arm()
			if done() {
				wakeAll() // other PEs may be blocked; have them re-check
				return false
			}
			if m.Pump(i) > 0 || pe.Sched.ReadyLen() > 0 {
				return true
			}
			// Idle-steal phase: absorb a neighbour's transient backlog
			// before parking. On success the stolen threads are already
			// enqueued here; re-enter the scheduler loop.
			if m.cfg.Steal && m.stealInto(i, rng) {
				return true
			}
			m.idlePolls.Add(1)
			<-ch
			return true
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			pe.Sched.Run()
		}()
	}
	wg.Wait()
	for i := m.cfg.LocalPELo; i < m.cfg.LocalPEHi; i++ {
		m.net.Endpoint(i).SetWakeHook(nil)
		m.pes[i].Sched.SetWakeHook(nil)
	}
	m.mu.Lock()
	m.gates = nil
	m.mu.Unlock()
}

// Wake re-evaluates every blocked idle PE. Callers that flip the
// RunParallel done condition from outside the machine use it to make
// termination observable.
func (m *Machine) Wake() {
	m.mu.Lock()
	gates := m.gates
	m.mu.Unlock()
	for _, g := range gates {
		if g != nil {
			g.wake()
		}
	}
}

// IdlePolls returns how many idle-handler iterations polled the
// network and found no work since the machine booted. A machine
// blocked in RunParallel with nothing to do accumulates at most a few
// per wake event; a busy-spinning implementation accumulates millions.
func (m *Machine) IdlePolls() uint64 { return m.idlePolls.Load() }

// wakeGate parks one idle PE. armed returns the channel to block on;
// wake closes the current channel (releasing the waiter) and installs
// a fresh one. The snapshot-then-check protocol in the idle handler
// makes wakeups impossible to lose: every wake that matters happens
// after the snapshot and therefore closes the snapshotted channel.
// Wakes arriving while the PE is not armed (it is busy running
// threads) are no-ops, so a busy phase costs deliverers nothing but
// the flag check.
type wakeGate struct {
	mu    sync.Mutex
	ch    chan struct{}
	armed bool
}

func newWakeGate() *wakeGate {
	return &wakeGate{ch: make(chan struct{})}
}

func (g *wakeGate) arm() <-chan struct{} {
	g.mu.Lock()
	g.armed = true
	ch := g.ch
	g.mu.Unlock()
	return ch
}

func (g *wakeGate) wake() {
	g.mu.Lock()
	if g.armed {
		close(g.ch)
		g.ch = make(chan struct{})
		g.armed = false
	}
	g.mu.Unlock()
}
