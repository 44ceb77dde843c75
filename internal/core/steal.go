package core

import (
	"fmt"
	"math/rand"

	"migflow/internal/comm"
	"migflow/internal/migrate"
)

// StealStats reports the machine's idle-cycle work stealing activity:
// how many victim probes idle PEs made, how many found a queue worth
// robbing, and how many threads actually moved. Stolen threads also
// appear in MigrationStats — a steal is an ordinary migration
// initiated by the thief.
type StealStats struct {
	Attempts uint64 // victim probes made by idle PEs
	Hits     uint64 // probes that transferred at least one thread
	Moved    uint64 // threads moved by stealing
}

// StealStats returns the machine's cumulative work-stealing counters.
func (m *Machine) StealStats() StealStats {
	return StealStats{
		Attempts: m.stealAttempts.Load(),
		Hits:     m.stealHits.Load(),
		Moved:    m.stealMoved.Load(),
	}
}

// stealInto is the idle-steal phase run by PE thief's idle handler:
// bounded randomized two-choice probing — pick two distinct victims,
// rob the modeled-busier one — with each transfer going through the
// normal migration data path. A probe only fires when the victim has
// charged strictly more virtual Work than the thief: wall-clock
// idleness alone is a poor signal (on a loaded host every scheduler
// goroutine drains its queue "instantly"), so without the load gate a
// first-to-idle PE becomes a work magnet and concentrates the very
// imbalance stealing is meant to shed. It reports whether any thread
// moved (the thief's queue is then non-empty).
func (m *Machine) stealInto(thief int, rng *rand.Rand) bool {
	if len(m.pes) < 2 {
		return false
	}
	attempts := m.cfg.StealAttempts
	if attempts <= 0 {
		attempts = DefaultStealAttempts
	}
	for a := 0; a < attempts; a++ {
		victim := m.pickVictim(thief, rng)
		m.stealAttempts.Add(1)
		if m.pes[victim].Sched.BusyNs() <= m.pes[thief].Sched.BusyNs() {
			continue // victim is no more loaded than us — not a steal target
		}
		stolen := m.pes[victim].Sched.TryStealHalf(0)
		if len(stolen) == 0 {
			continue
		}
		for _, t := range stolen {
			// The thread is already evicted (Migrating); MigrateNow
			// runs the ordinary extract → PUP → install pipeline and
			// finishMigration charges the network and forwards the
			// thread's communication endpoint. A failure here is a
			// runtime invariant violation, exactly as on the
			// self-initiated path.
			nbytes, err := migrate.MigrateNow(t, m.pes[victim], m.pes[thief], m.layout)
			if err != nil {
				panic(fmt.Sprintf("core: stealing thread %d from PE %d to %d: %v", t.ID(), victim, thief, err))
			}
			if err := m.finishMigration(comm.EntityID(t.ID()), victim, thief, nbytes); err != nil {
				panic(fmt.Sprintf("core: stealing thread %d from PE %d to %d: %v", t.ID(), victim, thief, err))
			}
		}
		m.stealHits.Add(1)
		m.stealMoved.Add(uint64(len(stolen)))
		return true
	}
	return false
}

// pickVictim implements two-choice victim selection: draw two distinct
// PEs other than the thief and return the one that has charged more
// modeled Work (lock-free peek), breaking ties toward the deeper
// ready queue. With only two PEs there is one candidate.
func (m *Machine) pickVictim(thief int, rng *rand.Rand) int {
	n := len(m.pes)
	v1 := rng.Intn(n - 1)
	if v1 >= thief {
		v1++
	}
	if n == 2 {
		return v1
	}
	// Uniform draw over the PEs excluding the thief and the first
	// pick: shift past each excluded index in ascending order.
	v2 := rng.Intn(n - 2)
	lo, hi := thief, v1
	if lo > hi {
		lo, hi = hi, lo
	}
	if v2 >= lo {
		v2++
	}
	if v2 >= hi {
		v2++
	}
	b1, b2 := m.pes[v1].Sched.BusyNs(), m.pes[v2].Sched.BusyNs()
	if b2 > b1 {
		return v2
	}
	if b2 == b1 && m.pes[v2].Sched.ReadyLenHint() > m.pes[v1].Sched.ReadyLenHint() {
		return v2
	}
	return v1
}
