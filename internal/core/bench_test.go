package core

import (
	"sync/atomic"
	"testing"

	"migflow/internal/comm"
)

// BenchmarkPump measures the message dispatch path under PE
// concurrency: 8 PEs, each sending to its own local entity and
// pumping its own inbox. A per-message global handler-table lock
// serializes all 8 PEs; the benchmark exposes that directly. (One PE
// pumping a dense entity range is bench/'s core.pump_ns.)
func BenchmarkPump(b *testing.B) {
	const pes = 8
	m, err := NewMachine(Config{NumPEs: pes})
	if err != nil {
		b.Fatal(err)
	}
	var handled atomic.Uint64
	for pe := 0; pe < pes; pe++ {
		if err := m.RegisterEntity(comm.EntityID(pe+1), pe, func(pe int, msg *comm.Message) {
			handled.Add(1)
		}); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.SetParallelism(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pe := int(next.Add(1)-1) % pes
		ep := m.Network().Endpoint(pe)
		msg := &comm.Message{To: comm.EntityID(pe + 1)}
		for pb.Next() {
			msg.Hops = 0
			if err := ep.Send(msg); err != nil {
				b.Error(err)
				return
			}
			if m.Pump(pe) == 0 {
				b.Error("pump found no message")
				return
			}
		}
	})
}
