package migrate

import (
	"testing"

	"migflow/internal/converse"
)

// benchStack is the benchmark stack size: a mostly-idle 64 KiB stack.
const benchStack = 64 << 10

// suspendedThreadOn parks one thread with a benchStack-sized, mostly
// idle stack (one live frame, one dirty page) on pe, so the batch
// benchmark spreads its fixtures instead of funnelling every
// source-side extract through one scheduler lock.
func suspendedThreadOn(b *testing.B, m *machine, pe *converse.PE) *converse.Thread {
	b.Helper()
	th, err := pe.Sched.CthCreate(converse.ThreadOptions{
		Strategy:  Isomalloc{},
		StackSize: benchStack,
	}, func(c *converse.Ctx) {
		frame, err := c.PushFrame(64)
		if err != nil {
			b.Error(err)
			return
		}
		if err := c.Space().WriteUint64(frame, 0x1D1E); err != nil {
			b.Error(err)
			return
		}
		c.Suspend()
	})
	if err != nil {
		b.Fatal(err)
	}
	pe.Sched.Start(th)
	m.runAll()
	if th.State() != converse.Suspended {
		b.Fatalf("fixture thread state = %s", th.State())
	}
	return th
}

// BenchmarkLBStep compares one load-balancer step moving a whole
// batch of threads serially (N MigrateExternal calls) against the
// pipelined BulkMigrate — the number that matters for measurement-
// based LB at scale. Each op is a full eviction + sparse extract +
// PUP + install of an idle 64 KiB-stack thread. bench/ times only the
// batched path (migrate.iso_ns_per_rank); batch32 measuring slower
// than serial32 is a row ROADMAP item 13 owes a verdict.
func BenchmarkLBStep(b *testing.B) {
	const batch = 32
	setup := func(b *testing.B) (*machine, []*converse.Thread) {
		m := newMachine(b, 4, nil)
		threads := make([]*converse.Thread, batch)
		for i := range threads {
			threads[i] = suspendedThreadOn(b, m, m.pes[i%4])
		}
		return m, threads
	}
	// One LB step: move every thread from its current PE to the
	// "mirror" PE (0↔2, 1↔3), alternating each iteration.
	b.Run("serial32", func(b *testing.B) {
		m, threads := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, th := range threads {
				src := th.Scheduler().PE()
				if _, err := MigrateExternal(th, src, m.pes[(src.Index+2)%4], nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch32", func(b *testing.B) {
		m, threads := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops := make([]Op, batch)
			for j, th := range threads {
				src := th.Scheduler().PE()
				ops[j] = Op{T: th, Src: src, Dst: m.pes[(src.Index+2)%4]}
			}
			for j, res := range BulkMigrate(ops, nil, 0) {
				if res.Err != nil {
					b.Fatalf("op %d: %v", j, res.Err)
				}
			}
		}
	})
}
