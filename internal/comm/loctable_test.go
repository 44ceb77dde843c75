package comm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// lockedSet, lockedDel are the table's write operations as the
// Network issues them: under the table's own mutex.
func lockedSet(t *locTable, id EntityID, pe int) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.set(id, pe)
}

func lockedDel(t *locTable, id EntityID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.del(id)
}

// TestLocTableMatchesMap runs a random insert / overwrite / remove /
// re-insert script against a builtin map, through several growths and
// at least one tombstone-dropping rebuild, checking every return
// value, every id's lookup and the live count as it goes. Ids 0 and
// ^0 are in the pool: whatever marks a never-claimed slot must not
// collide with a legal id.
func TestLocTableMatchesMap(t *testing.T) {
	var tab locTable
	if _, ok := tab.get(0); ok {
		t.Fatal("empty table holds id 0")
	}
	if tab.len() != 0 || lockedDel(&tab, 7) {
		t.Fatal("empty table is not empty")
	}
	rng := rand.New(rand.NewSource(28))
	pool := []EntityID{0, ^EntityID(0), PinnedEntity, 1, 64, 128}
	for len(pool) < 600 {
		pool = append(pool, EntityID(rng.Uint64()>>uint(rng.Intn(60))))
	}
	ref := map[EntityID]int{}
	dead := map[EntityID]bool{} // removed and not yet back
	rebuilds, revived := 0, 0
	last := tab.slots.Load()
	for step := 0; step < 20000; step++ {
		id := pool[rng.Intn(len(pool))]
		if rng.Intn(3) > 0 {
			pe := rng.Intn(1 << 20)
			old, ok := lockedSet(&tab, id, pe)
			if want, had := ref[id]; ok != had || (ok && old != want) {
				t.Fatalf("step %d: set(%d) replaced %d,%v; map held %d,%v", step, id, old, ok, want, had)
			}
			if dead[id] {
				revived++
				delete(dead, id)
			}
			ref[id] = pe
		} else {
			_, had := ref[id]
			if got := lockedDel(&tab, id); got != had {
				t.Fatalf("step %d: del(%d) = %v, map had it: %v", step, id, got, had)
			}
			if had {
				dead[id] = true
			}
			delete(ref, id)
		}
		if p := tab.slots.Load(); p != last {
			rebuilds, last = rebuilds+1, p
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: live count %d, map holds %d", step, tab.len(), len(ref))
		}
		probe := pool[rng.Intn(len(pool))]
		pe, ok := tab.get(probe)
		if want, had := ref[probe]; ok != had || (ok && pe != want) {
			t.Fatalf("step %d: get(%d) = %d,%v; map holds %d,%v", step, probe, pe, ok, want, had)
		}
	}
	for _, id := range pool {
		pe, ok := tab.get(id)
		if want, had := ref[id]; ok != had || (ok && pe != want) {
			t.Fatalf("final: get(%d) = %d,%v; map holds %d,%v", id, pe, ok, want, had)
		}
	}
	if rebuilds < 4 || revived == 0 {
		t.Errorf("script too tame: %d rebuilds (want ≥ 4: three growths and a tombstone sweep), %d tombstoned ids re-inserted", rebuilds, revived)
	}
	if n := len(*tab.slots.Load()); n > 16*len(pool) {
		t.Errorf("%d slots for a pool of %d ids: tombstones are not being dropped", n, len(pool))
	}
}

// TestLocTableConcurrentReaders spins lock-free readers against one
// writer that inserts through many growths, overwrites, and churns a
// second key set through tombstones (so rebuilds also drop entries).
// A key the writer has announced must be found from then on, and a
// found key's PE is always one the writer stored for that key — never
// the zero of a slot whose value has not been written yet. Id 0 is
// never inserted and must never be found: a claimed slot whose key has
// not been written yet would read as key 0.
func TestLocTableConcurrentReaders(t *testing.T) {
	const (
		keys    = 20000
		readers = 3
	)
	peOf := func(k uint64) int { return int(k%5) + 1 }                  // never 0
	stable := func(k uint64) EntityID { return EntityID((k + 1) * 64) } // never id 0
	churn := func(k uint64) EntityID { return PinnedEntity | EntityID(k) }

	var tab locTable
	var announced atomic.Uint64 // stable(0..announced-1) are in the table for good
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				n := announced.Load()
				k := uint64(rng.Int63n(keys))
				pe, ok := tab.get(stable(k))
				if k < n && !ok {
					t.Errorf("key %d vanished (%d announced)", k, n)
					return
				}
				if ok && pe != peOf(k) && pe != peOf(k)+10 {
					t.Errorf("key %d reads PE %d, writer only ever stored %d or %d", k, pe, peOf(k), peOf(k)+10)
					return
				}
				if pe, ok := tab.get(0); ok {
					t.Errorf("id 0 was never inserted but reads PE %d", pe)
					return
				}
				if pe, ok := tab.get(churn(k % 512)); ok && pe != 3 {
					t.Errorf("churn key %d reads PE %d, want 3", k%512, pe)
					return
				}
				if n == keys {
					return
				}
			}
		}(int64(r))
	}
	for k := uint64(0); k < keys; k++ {
		lockedSet(&tab, stable(k), peOf(k))
		announced.Store(k + 1)
		if k%3 == 0 {
			lockedSet(&tab, stable(k/2), peOf(k/2)+10)
		}
		if c := churn(k % 512); k%2 == 0 {
			lockedSet(&tab, c, 3)
		} else {
			lockedDel(&tab, churn((k-1)%512))
		}
	}
	wg.Wait()
	if got := tab.len(); got < keys {
		t.Errorf("live count %d after %d stable inserts", got, keys)
	}
}
