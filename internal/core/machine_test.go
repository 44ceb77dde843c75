package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/migrate"
	"migflow/internal/platform"
	"migflow/internal/swapglobal"
	"migflow/internal/trace"
)

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{NumPEs: 0}); err == nil {
		t.Error("zero PEs accepted")
	}
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPEs() != 2 || m.PE(0) == nil || m.PE(1) == nil {
		t.Error("machine malformed")
	}
	if m.PE(0).Prof.Name != "opteron" {
		t.Errorf("default platform = %s", m.PE(0).Prof.Name)
	}
	if m.Network().NumPEs() != 2 {
		t.Error("network size mismatch")
	}
	if m.Layout() != nil {
		t.Error("layout should default nil")
	}
}

func TestMachine32BitPlatformTooSmall(t *testing.T) {
	// 256 PEs × 64 MiB slots = 16 GiB of isomalloc region: a 32-bit
	// node cannot boot this job (the §3.4.2 scaling wall).
	_, err := NewMachine(Config{NumPEs: 256, Platform: platform.LinuxX86()})
	if err == nil {
		t.Fatal("32-bit machine booted a 16 GiB isomalloc region")
	}
	// Shrinking the per-PE slot (fewer/smaller threads) fits.
	if _, err := NewMachine(Config{NumPEs: 256, Platform: platform.LinuxX86(), IsoSlotPages: 512}); err != nil {
		t.Errorf("small-slot 32-bit boot failed: %v", err)
	}
}

func TestRunUntilQuiescentMigration(t *testing.T) {
	layout := swapglobal.NewLayout()
	layout.Declare("home", 8)
	m, err := NewMachine(Config{NumPEs: 3, Globals: layout})
	if err != nil {
		t.Fatal(err)
	}
	visited := []int{}
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{
		Strategy: migrate.Isomalloc{}, Globals: layout,
	}, func(c *converse.Ctx) {
		for dest := 0; dest < 3; dest++ {
			c.MigrateTo(dest)
			visited = append(visited, c.PE().Index)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent()
	if len(visited) != 3 || visited[0] != 0 || visited[1] != 1 || visited[2] != 2 {
		t.Errorf("visited = %v", visited)
	}
	count, bytes := m.MigrationStats()
	if count != 2 || bytes == 0 {
		t.Errorf("stats = %d migrations, %d bytes", count, bytes)
	}
	// Migration charged network time to the destination clocks.
	if m.PE(2).Clock.Now() == 0 {
		t.Error("destination clock not advanced by migration")
	}
	if m.MaxTime() == 0 {
		t.Error("MaxTime = 0")
	}
}

func TestMigrationUpdatesDirectory(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.MigrateTo(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	id := comm.EntityID(th.ID())
	if err := m.Network().Register(id, 0); err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent()
	pe, err := m.Network().Locate(id)
	if err != nil || pe != 1 {
		t.Errorf("directory says PE %d/%v, want 1", pe, err)
	}
}

func TestPumpDelivers(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	m.SetDeliveryHandler(func(pe int, msg *comm.Message) {
		got = append(got, msg.Tag)
	})
	if err := m.Network().Register(7, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Network().Endpoint(0).Send(&comm.Message{To: 7, Tag: i, SendTime: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Pump(1); n != 3 {
		t.Errorf("Pump = %d", n)
	}
	if len(got) != 3 {
		t.Errorf("delivered %d", len(got))
	}
	if m.Pump(1) != 0 {
		t.Error("second pump found phantom messages")
	}
}

func TestRunParallel(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var finished atomic.Int64
	const perPE = 5
	for i := 0; i < m.NumPEs(); i++ {
		for j := 0; j < perPE; j++ {
			th, err := m.PE(i).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
				for k := 0; k < 3; k++ {
					c.Yield()
				}
				finished.Add(1)
			})
			if err != nil {
				t.Fatal(err)
			}
			m.PE(i).Sched.Start(th)
		}
	}
	m.RunParallel(func() bool {
		return finished.Load() == int64(m.NumPEs()*perPE)
	})
	if finished.Load() != int64(m.NumPEs()*perPE) {
		t.Errorf("finished = %d", finished.Load())
	}
}

// TestTracing runs a migrating job with tracing enabled and checks
// the timeline invariants the analysis relies on.
func TestTracing(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	log := m.EnableTracing()
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.Yield()
		c.MigrateTo(1)
		c.Work(5000)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunUntilQuiescent()

	counts := log.Counts()
	if counts[trace.EvCreate] != 1 || counts[trace.EvExit] != 1 {
		t.Errorf("lifecycle events: %v", counts)
	}
	if counts[trace.EvMigrateOut] != 1 || counts[trace.EvMigrateIn] != 1 {
		t.Errorf("migration events: %v", counts)
	}
	if counts[trace.EvSwitchIn] != counts[trace.EvSwitchOut] {
		t.Errorf("unbalanced switches: %v", counts)
	}
	// Per PE: in/out strictly alternate and times are monotone.
	for pe := 0; pe < 2; pe++ {
		in := false
		last := -1.0
		for _, e := range log.Events() {
			if e.PE != pe {
				continue
			}
			if e.TimeNs < last {
				t.Errorf("PE %d: time went backwards at %v", pe, e)
			}
			last = e.TimeNs
			switch e.Kind {
			case trace.EvSwitchIn:
				if in {
					t.Errorf("PE %d: nested switch-in", pe)
				}
				in = true
			case trace.EvSwitchOut:
				if !in {
					t.Errorf("PE %d: switch-out without in", pe)
				}
				in = false
			}
		}
		if in {
			t.Errorf("PE %d: timeline ends switched in", pe)
		}
	}
	stats := trace.Utilization(log, 2)
	if stats[1].BusyNs <= 0 {
		t.Errorf("PE 1 busy = %g after running the migrated thread", stats[1].BusyNs)
	}
}

func TestRunParallelWithMigration(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	endPE := -1
	th, err := m.PE(0).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
		c.MigrateTo(1)
		endPE = c.PE().Index
		done.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.PE(0).Sched.Start(th)
	m.RunParallel(done.Load)
	if endPE != 1 {
		t.Errorf("thread ended on PE %d", endPE)
	}
}

// TestMigrateToRoundTripsAcrossPEGoroutines: under RunParallel every
// PE is its own goroutine, so a thread that calls MigrateTo parks on
// one goroutine and is resumed by another. Threads bounce between two
// PEs many times, each checking it woke where it asked to and that the
// value it left on its simulated stack came along.
func TestMigrateToRoundTripsAcrossPEGoroutines(t *testing.T) {
	m, err := NewMachine(Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	const threads, trips = 4, 50
	var done atomic.Int64
	var fail atomic.Value
	for i := 0; i < threads; i++ {
		home := i % 2
		th, err := m.PE(home).Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
			defer done.Add(1)
			frame, err := c.PushFrame(8)
			if err != nil {
				fail.Store(err.Error())
				return
			}
			for k := uint64(0); k < 2*trips; k++ {
				dest := 1 - c.PE().Index
				_ = c.Space().WriteUint64(frame, k)
				c.MigrateTo(dest)
				if c.PE().Index != dest {
					fail.Store(fmt.Sprintf("hop %d: woke on PE %d, want %d", k, c.PE().Index, dest))
				}
				if v, err := c.Space().ReadUint64(frame); err != nil || v != k {
					fail.Store(fmt.Sprintf("hop %d: frame = %d/%v", k, v, err))
				}
				c.Yield()
			}
			if c.PE().Index != home {
				fail.Store(fmt.Sprintf("ended on PE %d after %d round trips from PE %d", c.PE().Index, trips, home))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		m.PE(home).Sched.Start(th)
	}
	m.RunParallel(func() bool { return done.Load() == threads })
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	for pe := 0; pe < 2; pe++ {
		if n := m.PE(pe).Sched.Switches(); n < threads*trips {
			t.Errorf("PE %d performed %d switches, want at least %d", pe, n, threads*trips)
		}
	}
}
