package converse

import (
	"math/rand"
	"slices"
	"testing"
)

// TestReadyQueueModel drives random push / pop / remove / tail
// sequences over mixed priorities against the definition of the run
// order: a slice kept sorted on (priority, arrival).
func TestReadyQueueModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q readyQueue
		var oracle []*Thread // run order: stable-sorted by priority on every arrival
		pool := make([]*Thread, 64)
		for i := range pool {
			pool[i] = &Thread{id: ID(i + 1), prio: rng.Intn(5) - 2}
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // push a thread that is not queued
				th := pool[rng.Intn(len(pool))]
				if th.queued {
					continue
				}
				q.push(th)
				oracle = append(oracle, th)
				slices.SortStableFunc(oracle, func(a, b *Thread) int { return a.prio - b.prio })
			case op < 7: // pop the head of the run order
				got := q.pop()
				if len(oracle) == 0 {
					if got != nil {
						t.Fatalf("seed %d step %d: pop on empty queue returned thread %d", seed, step, got.id)
					}
					continue
				}
				if want := oracle[0]; got != want {
					t.Fatalf("seed %d step %d: pop = thread %d (prio %d), want %d (prio %d)",
						seed, step, got.id, got.prio, want.id, want.prio)
				}
				oracle = oracle[1:]
			case op < 9: // remove an arbitrary thread, queued or not
				th := pool[rng.Intn(len(pool))]
				i := slices.Index(oracle, th)
				if got := q.remove(th); got != (i >= 0) {
					t.Fatalf("seed %d step %d: remove(thread %d) = %v, queued = %v", seed, step, th.id, got, i >= 0)
				}
				if i >= 0 {
					oracle = slices.Delete(oracle, i, i+1)
				}
			default: // the tail a thief would see, last to run first
				k := rng.Intn(len(pool)/2 + 1)
				got := q.tail(k)
				if k > len(oracle) {
					k = len(oracle)
				}
				if len(got) != k {
					t.Fatalf("seed %d step %d: tail returned %d threads, want %d", seed, step, len(got), k)
				}
				for i, th := range got {
					if want := oracle[len(oracle)-1-i]; th != want {
						t.Fatalf("seed %d step %d: tail[%d] = thread %d, want %d", seed, step, i, th.id, want.id)
					}
				}
			}
			if q.n != len(oracle) {
				t.Fatalf("seed %d step %d: n = %d, oracle holds %d", seed, step, q.n, len(oracle))
			}
		}
		// Drain: the whole remaining order must come out as the oracle
		// has it, and leave every link cleared.
		for _, want := range oracle {
			if got := q.pop(); got != want {
				t.Fatalf("seed %d drain: pop = thread %d, want %d", seed, got.id, want.id)
			}
		}
		if q.pop() != nil || q.n != 0 {
			t.Fatalf("seed %d: queue not empty after drain (n = %d)", seed, q.n)
		}
		for _, th := range pool {
			if th.queued || th.qnext != nil || th.qprev != nil {
				t.Fatalf("seed %d: thread %d keeps queue links after drain", seed, th.id)
			}
		}
	}
}
