package core

import (
	"testing"

	"migflow/internal/converse"
	"migflow/internal/migrate"
)

// TestAdoptSuspendedOwnsThread: when a wake races with an external
// migration, AdoptSuspended must still record the thread in the
// destination's thread table. The pending-wake branch used to enqueue
// the thread without inserting it into the table, so Threads() omitted
// it and the exit-time reap deleted a key that was never there.
func TestAdoptSuspendedOwnsThread(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	resumed := false
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.Suspend()
		resumed = true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent() // thread now Suspended on PE 0
	if _, err := m.PE(0).Sched.Evict(th); err != nil {
		t.Fatal(err)
	}
	th.Awaken() // wake lands mid-flight
	var im migrate.ThreadImage
	if err := migrate.Extract(th, m.PE(0), &im); err != nil {
		t.Fatal(err)
	}
	if err := migrate.Install(th, m.PE(1), &im, nil); err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Disown(th)
	m.PE(1).Sched.AdoptSuspended(th)

	owned := false
	for _, o := range m.PE(1).Sched.Threads() {
		if o == th {
			owned = true
		}
	}
	if !owned {
		t.Error("adopted thread missing from destination Threads()")
	}
	if got := m.PE(1).Sched.Live(); got != 1 {
		t.Errorf("destination Live() = %d, want 1", got)
	}

	m.RunUntilQuiescent()
	if !resumed {
		t.Error("pending wake not honoured")
	}
	// Reap accounting must return to zero — with the thread missing
	// from the table, live and the table drifted apart here.
	if got := m.PE(1).Sched.Live(); got != 0 {
		t.Errorf("Live() after exit = %d, want 0", got)
	}
	if got := len(m.PE(1).Sched.Threads()); got != 0 {
		t.Errorf("Threads() after exit has %d entries, want 0", got)
	}
}
