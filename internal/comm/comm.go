// Package comm is the location-independent communication subsystem of
// §3.1.2: migratable entities (threads, chares, AMPI ranks) send to
// *names*, not processors. A distributed directory with per-PE
// location caches routes messages; when an entity migrates, stale
// cache entries cause one extra forwarding hop, after which the
// sender's cache is corrected — so "object or thread migration with
// ongoing point-to-point communication" works at any time.
//
// Delivery is in-order per (sender PE, destination entity) pair and
// carries virtual timestamps from a latency model, so the simulated
// machine's communication costs appear on the virtual clock.
//
// The send/deliver path is the hottest in the runtime (every message
// of every benchmark crosses it), so it is built to scale with PE
// count instead of serializing on one lock:
//
//   - the location directory is striped into shards, and each shard
//     is a locTable (loctable.go): Locate is one atomic load plus a
//     probe of atomic slots, with no lock; Register/MigrateEntity/
//     Deregister write one slot under a per-shard mutex;
//   - per-endpoint location caches are the same table, so a send
//     reads its cache without locking and only writes it — one slot —
//     when the entry actually changes (first contact or after a
//     migration);
//   - message counters are atomics, not a mutex-guarded struct;
//   - each inbox is a growable power-of-two ring buffer, so Poll does
//     not shift (and re-allocate) a slice.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// EntityID names a migratable communication endpoint,
// location-independently.
type EntityID uint64

// PinnedEntity is an EntityID bit marking a *directly addressed*
// entity (event-mode AMPI ranks: millions of small state structs in
// dense ID blocks). Sends to one skip the per-endpoint location cache
// entirely: such entities live in range location tables
// (RegisterRange) where the authoritative lookup Send already performs
// is O(1) array arithmetic and current as of that instant, so a cached
// copy could only be staler — and a million-rank job keeps no
// per-sender entry for any of them. They migrate through batched
// MoveRangeBatch updates (one epoch bump per LB step), never through
// the per-entity MigrateEntity path — which still refuses them.
const PinnedEntity EntityID = 1 << 63

// Pinned reports whether id carries the PinnedEntity bit.
func (id EntityID) Pinned() bool { return id&PinnedEntity != 0 }

// Message is one network message. The runtime's own messages come from
// a pool (NewMessage) and go back to it when consumed (pool.go).
type Message struct {
	To   EntityID
	From EntityID
	Tag  int
	// Data is the payload: set through SetData, it points into the
	// message itself when it is at most InlineBytes long.
	Data []byte

	// SendTime is the sender's virtual clock at Send; Arrival is
	// SendTime plus per-hop latency, set by the network.
	SendTime float64
	Arrival  float64

	// VTime is an application-level virtual timestamp carried
	// unmodified through delivery and forwarding. AMPI's
	// mode-independent predicted-time model stamps the sending rank's
	// virtual time here; it is deliberately separate from SendTime,
	// which belongs to the (mode- and placement-dependent) simulating
	// PE clock.
	VTime float64

	// Hops counts delivery attempts; >1 means forwarding happened.
	Hops int

	// Seq numbers the sender→receiver payload stream, starting at 1;
	// zero means unsequenced. Sharded AMPI stamps it so a receiver can
	// restore send order when a message routed straight to a rank's
	// new owner overtakes an older one still chasing through the old
	// owner's Forward path — per-link FIFO cannot order two routes.
	Seq uint64

	inline [InlineBytes]byte // a short payload's bytes (SetData)
}

// LatencyModel charges alpha + beta*bytes nanoseconds per hop — the
// standard postal model.
type LatencyModel struct {
	Alpha       float64 // ns per message
	BetaPerByte float64 // ns per byte
}

// Cost returns the virtual nanoseconds one hop of n bytes takes.
func (m LatencyModel) Cost(n int) float64 { return m.Alpha + m.BetaPerByte*float64(n) }

// DefaultLatency approximates the paper's Myrinet-class cluster
// interconnect: ~10 µs latency, ~4 ns/byte (≈250 MB/s).
var DefaultLatency = LatencyModel{Alpha: 10_000, BetaPerByte: 4}

// locShards stripes the directory; must be a power of two. Entity IDs
// are dense (sequential thread IDs, rank numbers), so masking the low
// bits spreads them evenly.
const locShards = 64

// rangeLoc is one dense ID block's location table: entity base+i
// lives on PE pes[i]. Lookups are array arithmetic (no map, no lock);
// entries are atomics so a batched LB-step update (MoveRangeBatch)
// publishes new locations in place, with no hashing and 4 bytes per
// entity where a locTable slot takes 16. A negative entry is a
// tombstone (deregistered entity).
type rangeLoc struct {
	base EntityID
	pes  []atomic.Int32
	live atomic.Int64
}

func (rl *rangeLoc) contains(id EntityID) bool {
	return id >= rl.base && id < rl.base+EntityID(len(rl.pes))
}

// RangeMove is one entry of a batched range-table update: entity
// base+Index moves to PE To.
type RangeMove struct {
	Index int
	To    int
}

// Network connects NumPEs endpoints through a directory.
type Network struct {
	lat       LatencyModel
	endpoints []*Endpoint
	shards    [locShards]locTable // directory stripes, by the id's low bits

	// ranges holds the dense range location tables (COW slice of
	// pointers: the slice is rewritten under rangesMu when a table is
	// added or removed — rare — while the tables' entries themselves
	// mutate in place through atomics).
	rangesMu sync.Mutex
	ranges   atomic.Pointer[[]*rangeLoc]

	// stats
	sent     atomic.Uint64
	forwards atomic.Uint64
	bytes    atomic.Uint64

	// streaming-aggregation stats (see aggregate.go)
	envelopes   atomic.Uint64
	aggPayloads atomic.Uint64

	// topoHops counts logical network hops charged by topology-aware
	// collective trees (see ampi's Topology): the layer above reports
	// each tree edge's hop distance here so harnesses can compare
	// rank-order vs topology-aware spanning trees on the same run.
	topoHops atomic.Uint64

	// Sharding (see transport.go): xport is nil on the default
	// in-process backend. When set, endpoints in [peLo, peHi) are
	// local and everything else crosses the transport; the remote*
	// counters tally that wire traffic.
	xport           Transport
	peLo, peHi      int
	remoteEnvelopes atomic.Uint64
	remotePayloads  atomic.Uint64
	remoteBytes     atomic.Uint64

	// flowIDs allocates dense pinned-entity blocks (AllocFlowIDs).
	flowIDs atomic.Uint64
}

// AllocFlowIDs reserves a contiguous block of n pinned entity
// identifiers from THIS network's ID space and returns the first.
// Per-network (not process-global) allocation matters for sharded
// runs: every worker process builds its machine and jobs in the same
// order, so identical construction yields identical entity bases —
// the invariant that makes each worker's directory authoritative for
// traffic arriving over the transport. Only event-mode flows draw
// from this space; ULT thread entities use raw converse thread IDs,
// which never carry the PinnedEntity bit, so the two can't collide.
func (n *Network) AllocFlowIDs(count int) EntityID {
	if count < 1 {
		panic(fmt.Sprintf("comm: AllocFlowIDs(%d)", count))
	}
	return PinnedEntity | EntityID(n.flowIDs.Add(uint64(count))-uint64(count)+1)
}

// NewNetwork builds a network of numPEs endpoints.
func NewNetwork(numPEs int, lat LatencyModel) *Network {
	n := &Network{lat: lat}
	for pe := 0; pe < numPEs; pe++ {
		n.endpoints = append(n.endpoints, &Endpoint{net: n, pe: pe})
	}
	return n
}

// Endpoint returns PE pe's endpoint.
func (n *Network) Endpoint(pe int) *Endpoint { return n.endpoints[pe] }

// Latency returns the network's latency model.
func (n *Network) Latency() LatencyModel { return n.lat }

func (n *Network) shard(id EntityID) *locTable {
	return &n.shards[uint64(id)&(locShards-1)]
}

// Register places entity id on PE pe. Registering an existing entity
// is an error; use MigrateEntity to move it.
func (n *Network) Register(id EntityID, pe int) error {
	if pe < 0 || pe >= len(n.endpoints) {
		return fmt.Errorf("comm: Register(%d): PE %d out of range", id, pe)
	}
	s := n.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.get(id); ok {
		return fmt.Errorf("comm: entity %d already registered on PE %d", id, old)
	}
	s.set(id, pe)
	return nil
}

// Deregister removes an entity (exit).
func (n *Network) Deregister(id EntityID) {
	s := n.shard(id)
	s.mu.Lock()
	s.del(id)
	s.mu.Unlock()
}

// DeregisterBatch removes a set of entities (the exit path of a
// finished event-mode job). Ids living in range tables are tombstoned
// in place, the rest go through Deregister. Unregistered ids are
// ignored.
func (n *Network) DeregisterBatch(ids []EntityID) {
	for _, id := range ids {
		if rl := n.rangeOf(id); rl != nil {
			i := int(id - rl.base)
			if rl.pes[i].Load() >= 0 {
				rl.pes[i].Store(-1)
				rl.live.Add(-1)
			}
			continue
		}
		n.Deregister(id)
	}
}

// NumEntities returns how many entities are currently registered
// (shard tables plus live range-table entries) — a footprint
// diagnostic: a completed job should leave the directory at its
// pre-job size.
func (n *Network) NumEntities() int {
	total := 0
	for si := range n.shards {
		total += n.shards[si].len()
	}
	if rs := n.ranges.Load(); rs != nil {
		for _, rl := range *rs {
			total += int(rl.live.Load())
		}
	}
	return total
}

// rangeOf returns the range table containing id, or nil. One atomic
// load when no tables exist (every non-event workload).
func (n *Network) rangeOf(id EntityID) *rangeLoc {
	if rs := n.ranges.Load(); rs != nil {
		for _, rl := range *rs {
			if rl.contains(id) {
				return rl
			}
		}
	}
	return nil
}

// RegisterRange places the dense entity block base..base+len(pes)-1
// in a new range location table: entity base+i lives on PE pes[i].
// Compared with Register's shard tables, a range table costs 4
// bytes per entity, locates with array arithmetic instead of a hash
// probe, and — the point — supports batched location updates, so
// range entities are migratable. The block must not overlap an
// existing range; ids also present in the shard tables would shadow the
// range (shards are consulted first) and are the caller's mistake.
func (n *Network) RegisterRange(base EntityID, pes []int) error {
	if len(pes) == 0 {
		return fmt.Errorf("comm: RegisterRange(%d): empty range", base)
	}
	for i, pe := range pes {
		if pe < 0 || pe >= len(n.endpoints) {
			return fmt.Errorf("comm: RegisterRange(%d+%d): PE %d out of range", base, i, pe)
		}
	}
	rl := &rangeLoc{base: base, pes: make([]atomic.Int32, len(pes))}
	for i, pe := range pes {
		rl.pes[i].Store(int32(pe))
	}
	rl.live.Store(int64(len(pes)))
	n.rangesMu.Lock()
	defer n.rangesMu.Unlock()
	var next []*rangeLoc
	if old := n.ranges.Load(); old != nil {
		for _, r := range *old {
			if base < r.base+EntityID(len(r.pes)) && r.base < base+EntityID(len(pes)) {
				return fmt.Errorf("comm: RegisterRange(%d, %d entities) overlaps existing range at %d", base, len(pes), r.base)
			}
		}
		next = append(next, *old...)
	}
	next = append(next, rl)
	n.ranges.Store(&next)
	return nil
}

// MoveRangeBatch applies one load-balancing step's moves to a range
// table: entity base+Index now lives on PE To. The whole batch is
// validated first, then applied as per-entity atomic stores, so a
// million-rank LB step updates the directory in one linear pass with
// no allocation, and unmoved entities keep their O(1) lookups.
// Senders that routed a message before its entry was updated cost one
// forwarding hop (Endpoint.Forward), exactly like a stale cache.
func (n *Network) MoveRangeBatch(base EntityID, moves []RangeMove) error {
	rl := n.rangeOf(base)
	if rl == nil {
		return fmt.Errorf("comm: MoveRangeBatch(%d): no such range", base)
	}
	for _, mv := range moves {
		if mv.Index < 0 || mv.Index >= len(rl.pes) {
			return fmt.Errorf("comm: MoveRangeBatch(%d): index %d outside range of %d", base, mv.Index, len(rl.pes))
		}
		if mv.To < 0 || mv.To >= len(n.endpoints) {
			return fmt.Errorf("comm: MoveRangeBatch(%d): PE %d out of range", base, mv.To)
		}
		if rl.pes[mv.Index].Load() < 0 {
			return fmt.Errorf("comm: MoveRangeBatch(%d): entity %d is deregistered", base, mv.Index)
		}
	}
	for _, mv := range moves {
		rl.pes[mv.Index].Store(int32(mv.To))
	}
	return nil
}

// DeregisterRange removes the whole range table registered at base.
func (n *Network) DeregisterRange(base EntityID) {
	n.rangesMu.Lock()
	defer n.rangesMu.Unlock()
	old := n.ranges.Load()
	if old == nil {
		return
	}
	next := make([]*rangeLoc, 0, len(*old))
	for _, r := range *old {
		if r.base != base {
			next = append(next, r)
		}
	}
	n.ranges.Store(&next)
}

// Locate returns the authoritative location of id. It takes no lock:
// one atomic load of the entity's directory shard plus a slot probe,
// or — for range-table entities — one atomic table load plus array
// arithmetic.
func (n *Network) Locate(id EntityID) (int, error) {
	if pe, ok := n.shard(id).get(id); ok {
		return pe, nil
	}
	if rl := n.rangeOf(id); rl != nil {
		if pe := rl.pes[id-rl.base].Load(); pe >= 0 {
			return int(pe), nil
		}
	}
	return 0, fmt.Errorf("comm: entity %d is not registered", id)
}

// MigrateEntity moves id's authoritative location to PE to. Old cache
// entries at other PEs go stale and are corrected lazily on the next
// forwarded message.
func (n *Network) MigrateEntity(id EntityID, to int) error {
	if to < 0 || to >= len(n.endpoints) {
		return fmt.Errorf("comm: MigrateEntity(%d): PE %d out of range", id, to)
	}
	if id.Pinned() {
		return fmt.Errorf("comm: entity %d is pinned and cannot migrate", id)
	}
	s := n.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.get(id); !ok {
		return fmt.Errorf("comm: entity %d is not registered", id)
	}
	s.set(id, to)
	return nil
}

// ChargeTopoHops adds h logical hops to the topology-hop counter.
func (n *Network) ChargeTopoHops(h uint64) { n.topoHops.Add(h) }

// TopoHops returns the total logical hops charged by topology-aware
// collective trees (zero when no topology is configured).
func (n *Network) TopoHops() uint64 { return n.topoHops.Load() }

// Endpoint is one PE's attachment to the network: an inbox plus a
// location cache.
type Endpoint struct {
	net *Network
	pe  int

	// cache is the PE's location cache: a send reads it without a lock
	// and writes one slot only when an entry actually changes — first
	// contact with an entity, or the correction after a forwarding hop.
	// Entries are never removed; see cachedOrNote for who bypasses it.
	cache locTable

	mu    sync.Mutex
	inbox msgRing
	hook  func() // optional wakeup hook (scheduler integration)

	// agg, when non-nil, is the endpoint's streaming-aggregation
	// state (see aggregate.go). aggMu is held across a whole flush so
	// one sender's envelopes leave in order; it never nests inside mu.
	aggMu sync.Mutex
	agg   *aggregator
}

// SetWakeHook registers fn to run (without locks held) whenever a
// message arrives — the converse scheduler uses it to wake its loop.
func (e *Endpoint) SetWakeHook(fn func()) {
	e.mu.Lock()
	e.hook = fn
	e.mu.Unlock()
}

// cachedOrNote returns the PE this endpoint's location cache held for
// id — actual itself on first contact — and leaves the cache holding
// actual, the directory's current answer. Two kinds of send neither
// read nor write the cache and always get actual back: pinned ids (the
// range-table lookup that produced actual is O(1) and authoritative; if
// the entity moves while the message is in flight, the receiver's owner
// check catches it and Forward chases) and every id on a sharded
// network (a stale cached PE could belong to another process).
func (e *Endpoint) cachedOrNote(id EntityID, actual int) int {
	if id.Pinned() || e.net.xport != nil {
		return actual
	}
	return e.cache.lookupOrNote(id, actual)
}

// Send routes msg from this endpoint's PE toward msg.To, charging one
// hop of latency per delivery attempt. Stale location caches produce
// forwarding hops; the cache self-corrects afterwards.
//
// The cached location decides where the message physically goes
// first; one authoritative directory lookup decides whether that PE
// was the right one. A stale cache therefore costs a forwarding hop
// from the wrong PE to the right one, exactly like the two-Locate
// protocol it replaces, at half the directory traffic.
func (e *Endpoint) Send(msg *Message) error {
	if msg == nil {
		return fmt.Errorf("comm: Send(nil)")
	}
	actual, err := e.net.Locate(msg.To)
	if err != nil {
		return err
	}
	// Stats are counted at entry: every Send call is one send of
	// len(Data) payload bytes, whatever hop count the message already
	// carries (a caller retrying a message must not be invisible).
	e.net.sent.Add(1)
	e.net.bytes.Add(uint64(len(msg.Data)))

	msg.Hops++
	msg.Arrival = msg.SendTime + e.net.lat.Cost(len(msg.Data))
	if e.cachedOrNote(msg.To, actual) != actual {
		// Stale: the wrong PE received it and forwards (the cache is
		// already corrected), re-sending from there for another hop.
		e.net.forwards.Add(1)
		msg.SendTime = msg.Arrival // forwarding leaves on arrival
		return e.net.forwardTo(msg, actual)
	}
	e.net.deliverTo(actual, msg)
	return nil
}

// forward re-sends a misdelivered message from this PE to the
// authoritative location.
func (e *Endpoint) forward(msg *Message, to int) error {
	return e.net.forwardTo(msg, to)
}

// Forward re-routes a message this PE received for an entity that no
// longer lives here — the receive-side half of migration with
// messages in flight. It costs one forwarding hop (the message leaves
// again at its arrival time) and counts as a forward, not a fresh
// send, so migrated and unmigrated runs of the same program report
// identical sent counts.
func (e *Endpoint) Forward(msg *Message) error {
	actual, err := e.net.Locate(msg.To)
	if err != nil {
		return err
	}
	e.net.forwards.Add(1)
	msg.SendTime = msg.Arrival
	return e.forward(msg, actual)
}

// deliver appends msg to the inbox and fires the wake hook.
func (e *Endpoint) deliver(msg *Message) {
	e.mu.Lock()
	e.inbox.push(msg)
	hook := e.hook
	e.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// deliverBatch appends a flushed envelope's payloads to the inbox
// under one lock acquisition — the receive-side half of aggregation's
// wall-clock win (one lock + one wakeup per envelope, not per
// payload).
func (e *Endpoint) deliverBatch(msgs []*Message) {
	if len(msgs) == 0 {
		return
	}
	e.mu.Lock()
	for _, m := range msgs {
		e.inbox.push(m)
	}
	hook := e.hook
	e.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// Poll removes and returns the oldest inbox message, or nil.
func (e *Endpoint) Poll() *Message {
	e.mu.Lock()
	m := e.inbox.pop()
	e.mu.Unlock()
	return m
}

// Pending returns the inbox depth.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inbox.len()
}
