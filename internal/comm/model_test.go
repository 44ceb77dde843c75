package comm

import (
	"fmt"
	"math/rand"
	"testing"
)

// refNet is the routing model of §3.1.2 in two plain maps: the
// authoritative directory and one location cache per PE. The real
// Network must agree with it on every message's destination, Hops and
// Arrival and on every counter, whatever structure holds its tables.
type refNet struct {
	lat      LatencyModel
	dir      map[EntityID]int
	cache    []map[EntityID]int
	noCache  bool // sharded network: caches bypassed on read and write
	sent     uint64
	forwards uint64
	bytes    uint64
	envs     uint64
	pending  [][][]*refMsg // [sender PE][destination PE] buffered SendStream payloads
	want     [][]refMsg    // [PE] deliveries the last operation must have produced
}

type refMsg struct {
	to      EntityID
	tag     int
	size    int
	send    float64
	hops    int
	arrival float64
}

func newRefNet(pes int, lat LatencyModel, noCache bool) *refNet {
	r := &refNet{lat: lat, dir: map[EntityID]int{}, noCache: noCache}
	r.cache = make([]map[EntityID]int, pes)
	r.pending = make([][][]*refMsg, pes)
	for pe := range r.cache {
		r.cache[pe] = map[EntityID]int{}
		r.pending[pe] = make([][]*refMsg, pes)
	}
	r.want = make([][]refMsg, pes)
	return r
}

// note is the cache write: first contact or stale correction. Pinned
// ids and sharded networks never touch a cache.
func (r *refNet) note(from int, id EntityID, actual int) {
	if !id.Pinned() && !r.noCache {
		r.cache[from][id] = actual
	}
}

func (r *refNet) send(from int, m refMsg) bool {
	actual, ok := r.dir[m.to]
	if !ok {
		return false
	}
	r.sent++
	r.bytes += uint64(m.size)
	m.hops, m.arrival = 1, m.send+r.lat.Cost(m.size)
	if c, hit := r.cache[from][m.to]; hit && c != actual {
		r.forwards++
		m.hops, m.arrival = 2, m.arrival+r.lat.Cost(m.size)
	}
	r.note(from, m.to, actual)
	r.want[actual] = append(r.want[actual], m)
	return true
}

func (r *refNet) sendStream(from int, m refMsg) bool {
	dest, ok := r.dir[m.to]
	if !ok {
		return false
	}
	r.sent++
	r.bytes += uint64(m.size)
	r.pending[from][dest] = append(r.pending[from][dest], &m)
	return true
}

// flush ships every bucket of sender PE from; it reports whether some
// payload's entity had vanished (the real Flush returns an error then).
func (r *refNet) flush(from int) (lost bool) {
	for pe, b := range r.pending[from] {
		if len(b) == 0 {
			continue
		}
		r.pending[from][pe] = nil
		r.envs++
		departs, bytes := 0.0, 0
		for _, m := range b {
			bytes += m.size
			if m.send > departs {
				departs = m.send
			}
		}
		arrival := departs + r.lat.Cost(bytes)
		for _, m := range b {
			actual, ok := r.dir[m.to]
			if !ok {
				lost = true
				continue
			}
			m.hops, m.arrival = 1, arrival
			if actual != pe {
				r.forwards++
				r.note(from, m.to, actual)
				m.hops, m.arrival = 2, arrival+r.lat.Cost(m.size)
			}
			r.want[actual] = append(r.want[actual], *m)
		}
	}
	return lost
}

// stubTransport records what a sharded Network hands the wire.
type stubTransport struct{ got [][]*Message }

func (s *stubTransport) Deliver(pe int, msg *Message) error {
	s.got[pe] = append(s.got[pe], msg)
	return nil
}
func (s *stubTransport) Close() error { return nil }

// TestRoutingMatchesModel drives a seeded random script of directory
// and send operations through a Network and through refNet, and
// compares every delivery (PE, order, Hops, Arrival), every counter
// and the directory size after each operation.
func TestRoutingMatchesModel(t *testing.T) {
	for _, variant := range []string{"shard", "pinned", "transport"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", variant, seed), func(t *testing.T) {
				runRoutingScript(t, variant, seed)
			})
		}
	}
}

func runRoutingScript(t *testing.T, variant string, seed int64) {
	const (
		pes   = 6
		nIDs  = 48
		steps = 4000
	)
	rng := rand.New(rand.NewSource(seed))
	lat := LatencyModel{Alpha: 100, BetaPerByte: 3}
	n := NewNetwork(pes, lat)
	n.EnableAggregation(AggPolicy{MaxPayloads: 1 << 30, MaxBytes: 1 << 30})
	ref := newRefNet(pes, lat, variant == "transport")
	var stub *stubTransport
	if variant == "transport" {
		stub = &stubTransport{got: make([][]*Message, pes)}
		if err := n.SetTransport(stub, 0, pes/2); err != nil {
			t.Fatal(err)
		}
	}

	// The id pool. Shard variants draw from sparse unpinned ids plus
	// the two extremes of the id space (^0 carries the pinned bit: a
	// pinned id living in a shard still never touches a cache). The
	// pinned variant uses one dense range table, fully registered.
	ids := make([]EntityID, nIDs)
	var base EntityID
	if variant == "pinned" {
		base = n.AllocFlowIDs(nIDs)
		place := make([]int, nIDs)
		for i := range ids {
			ids[i], place[i] = base+EntityID(i), rng.Intn(pes)
			ref.dir[ids[i]] = place[i]
		}
		if err := n.RegisterRange(base, place); err != nil {
			t.Fatal(err)
		}
	} else {
		ids[0], ids[1] = 0, ^EntityID(0)
		for i := 2; i < nIDs; i++ {
			ids[i] = EntityID(rng.Int63n(1 << 20))
		}
	}

	tag := 0
	newMsg := func(id EntityID) (*Message, refMsg) {
		tag++
		size, send := rng.Intn(200), float64(rng.Intn(1_000_000))
		return &Message{To: id, Tag: tag, Data: make([]byte, size), SendTime: send},
			refMsg{to: id, tag: tag, size: size, send: send}
	}
	for step := 0; step < steps; step++ {
		id, pe := ids[rng.Intn(nIDs)], rng.Intn(pes)
		_, registered := ref.dir[id]
		switch op := rng.Intn(100); {
		case op < 45:
			m, rm := newMsg(id)
			err := n.Endpoint(pe).Send(m)
			if ok := ref.send(pe, rm); ok != (err == nil) {
				t.Fatalf("step %d: Send(%d) from PE %d: err=%v, model ok=%v", step, id, pe, err, ok)
			}
		case op < 65:
			m, rm := newMsg(id)
			err := n.Endpoint(pe).SendStream(m)
			if ok := ref.sendStream(pe, rm); ok != (err == nil) {
				t.Fatalf("step %d: SendStream(%d) from PE %d: err=%v, model ok=%v", step, id, pe, err, ok)
			}
		case op < 72:
			err := n.Endpoint(pe).Flush()
			if lost := ref.flush(pe); lost != (err != nil) {
				t.Fatalf("step %d: Flush PE %d: err=%v, model lost=%v", step, pe, err, lost)
			}
		case op < 84: // migrate
			var err error
			if variant == "pinned" {
				err = n.MoveRangeBatch(base, []RangeMove{{Index: int(id - base), To: pe}})
			} else {
				err = n.MigrateEntity(id, pe)
			}
			ok := registered && (variant == "pinned" || !id.Pinned())
			if ok != (err == nil) {
				t.Fatalf("step %d: migrate %d to PE %d: err=%v, model ok=%v", step, id, pe, err, ok)
			}
			if ok {
				ref.dir[id] = pe
			}
		case op < 93: // register (shard variants; a range entry cannot come back)
			if variant == "pinned" {
				continue
			}
			if err := n.Register(id, pe); registered != (err != nil) {
				t.Fatalf("step %d: Register(%d): err=%v, already registered=%v", step, id, err, registered)
			}
			if !registered {
				ref.dir[id] = pe
			}
		default: // deregister, alternating the single and the batch call
			if variant == "pinned" || step%2 == 0 {
				n.DeregisterBatch([]EntityID{id})
			} else {
				n.Deregister(id)
			}
			delete(ref.dir, id)
		}

		// Every delivery the operation caused, per PE and in order.
		for q := 0; q < pes; q++ {
			var got []*Message
			if n.LocalPE(q) {
				for m := n.Endpoint(q).Poll(); m != nil; m = n.Endpoint(q).Poll() {
					got = append(got, m)
				}
			} else {
				got, stub.got[q] = stub.got[q], nil
			}
			if len(got) != len(ref.want[q]) {
				t.Fatalf("step %d: PE %d received %d messages, model says %d", step, q, len(got), len(ref.want[q]))
			}
			for i, m := range got {
				w := ref.want[q][i]
				if m.Tag != w.tag || m.Hops != w.hops || m.Arrival != w.arrival {
					t.Fatalf("step %d: PE %d message %d: tag %d hops %d arrival %v, model tag %d hops %d arrival %v",
						step, q, i, m.Tag, m.Hops, m.Arrival, w.tag, w.hops, w.arrival)
				}
			}
			ref.want[q] = ref.want[q][:0]
		}
		s := n.Snapshot()
		if s.Sent != ref.sent || s.Forwards != ref.forwards || s.Bytes != ref.bytes || s.Envelopes != ref.envs {
			t.Fatalf("step %d: sent/forwards/bytes/envelopes = %d/%d/%d/%d, model %d/%d/%d/%d",
				step, s.Sent, s.Forwards, s.Bytes, s.Envelopes, ref.sent, ref.forwards, ref.bytes, ref.envs)
		}
		if got := n.NumEntities(); got != len(ref.dir) {
			t.Fatalf("step %d: NumEntities = %d, model %d", step, got, len(ref.dir))
		}
		probe := ids[rng.Intn(nIDs)]
		gotPE, err := n.Locate(probe)
		if wantPE, ok := ref.dir[probe]; ok != (err == nil) || (ok && gotPE != wantPE) {
			t.Fatalf("step %d: Locate(%d) = %d, %v; model %d, %v", step, probe, gotPE, err, wantPE, ok)
		}
	}
	if ref.forwards == 0 {
		t.Error("script produced no forwarding hop: the stale-cache path went untested")
	}
	if variant != "shard" {
		for pe := 0; pe < pes; pe++ {
			if c := n.Endpoint(pe).cache.len(); c != 0 {
				t.Errorf("PE %d's location cache holds %d entries; %s sends must never touch it", pe, c, variant)
			}
		}
	}
}
