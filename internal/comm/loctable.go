package comm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// locTable is an EntityID → PE table with lock-free reads and O(1)
// amortised writes: open addressing, linear probing, insert-only (a
// slot's key never changes once set). One type serves the directory's
// 64 stripes and every endpoint's location cache.
//
// A slot's val is the publication word: 0 means the slot was never
// claimed, pe+1 a live entry, negative a tombstone. The writer stores
// the key and then the val, so a reader that sees a non-zero val sees
// its key too, every EntityID (0 and ^0 included) is a legal key, and
// a live entry is never observed with an unwritten PE. Writers hold mu
// (the Network's compound check-then-write operations take it around
// get+set); get takes no lock. Growth builds a new slot array without
// the tombstones and publishes it with one pointer store; a reader
// still probing the old array sees the table as of that store.
type locTable struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]locSlot]
	used  int // claimed slots, tombstones included (guarded by mu)
	live  int // live entries (guarded by mu)
}

type locSlot struct {
	key atomic.Uint64
	val atomic.Int64
}

const (
	locMinSlots  = 8
	locTombstone = -1
)

// probe returns the slot holding id, or the never-claimed slot that
// ends id's probe sequence, with the slot's val. slots is a power-of-two
// array with at least one never-claimed slot. Entity ids are counters
// (dense in a cache, stride-64 in a directory stripe), so the start
// index is the TOP bits of a Fibonacci hash — consecutive keys land
// maximally far apart and almost every lookup ends at its first slot;
// low or middle bits would chain a stripe's ids into one long run.
func probe(slots []locSlot, id EntityID) (*locSlot, int64) {
	h, _ := bits.Mul64(uint64(id)*0x9E3779B97F4A7C15, uint64(len(slots)))
	for i := int(h); ; i++ {
		s := &slots[i&(len(slots)-1)]
		v := s.val.Load()
		if v == 0 || EntityID(s.key.Load()) == id {
			return s, v
		}
	}
}

// get returns id's PE; ok is false for an absent or removed id.
func (t *locTable) get(id EntityID) (pe int, ok bool) {
	var v int64
	if p := t.slots.Load(); p != nil {
		_, v = probe(*p, id)
	}
	return int(v - 1), v > 0
}

// set maps id to pe and returns the PE it replaced (ok false when id
// was absent or removed). Caller holds t.mu.
func (t *locTable) set(id EntityID, pe int) (old int, ok bool) {
	p := t.slots.Load()
	if p == nil {
		p = t.rebuild()
	}
	s, v := probe(*p, id)
	if v == 0 {
		if (t.used+1)*4 > len(*p)*3 {
			s, _ = probe(*t.rebuild(), id)
		}
		s.key.Store(uint64(id))
		t.used++
	}
	s.val.Store(int64(pe) + 1)
	if v <= 0 {
		t.live++
	}
	return int(v - 1), v > 0
}

// del removes id, leaving a tombstone that the next rebuild drops;
// it reports whether id was live. Caller holds t.mu.
func (t *locTable) del(id EntityID) bool {
	p := t.slots.Load()
	if p == nil {
		return false
	}
	s, v := probe(*p, id)
	if v <= 0 {
		return false
	}
	s.val.Store(locTombstone)
	t.live--
	return true
}

// rebuild publishes a fresh slot array holding the live entries at a
// load of at most one quarter and returns it. With set's three-quarter
// trigger a growing table quadruples — the arrays a table ever
// allocated sum to 4/3 of its current one — and a table whose entries
// mostly died shrinks. Caller holds t.mu.
func (t *locTable) rebuild() *[]locSlot {
	size := locMinSlots
	for size < 4*(t.live+1) {
		size *= 2
	}
	next := make([]locSlot, size)
	if p := t.slots.Load(); p != nil {
		for i := range *p {
			if s := &(*p)[i]; s.val.Load() > 0 {
				key := s.key.Load()
				d, _ := probe(next, EntityID(key))
				d.key.Store(key)
				d.val.Store(s.val.Load())
			}
		}
	}
	t.used = t.live
	t.slots.Store(&next)
	return &next
}

// len returns the number of live entries.
func (t *locTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// lookupOrNote is an endpoint cache's whole protocol in one step: it
// returns the PE the table held for id — pe itself on first contact —
// and leaves the table holding pe. The steady state (entry present
// and current) takes no lock.
func (t *locTable) lookupOrNote(id EntityID, pe int) int {
	if cur, ok := t.get(id); ok && cur == pe {
		return pe
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.set(id, pe); ok {
		return old
	}
	return pe
}
