package comm

import (
	"sync/atomic"
	"testing"
)

// BenchmarkSend measures the hot send→deliver→poll path with 8
// concurrent sender PEs, each streaming to its own destination entity
// on a distinct receiver PE. This is the contention profile of a
// scaling run: every sender resolves the directory and touches stats
// on every message, so a serializing directory lock shows up directly
// in ns/op. The single-sender baseline is bench/'s comm.send_ns.
func BenchmarkSend(b *testing.B) {
	const senders = 8
	n := NewNetwork(2*senders, LatencyModel{Alpha: 100, BetaPerByte: 1})
	for i := 0; i < senders; i++ {
		if err := n.Register(EntityID(i+1), senders+i); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, 64)
	var next atomic.Int64
	b.SetParallelism(1) // exactly one goroutine per sender PE at GOMAXPROCS≥8
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % senders
		src := n.Endpoint(id)
		dst := n.Endpoint(senders + id)
		msg := &Message{To: EntityID(id + 1), From: EntityID(100 + id), Data: payload}
		for pb.Next() {
			msg.Hops = 0
			if err := src.Send(msg); err != nil {
				b.Error(err)
				return
			}
			// Drain so the inbox stays bounded; popping is part of the
			// hot path a pumping PE pays anyway.
			if dst.Poll() == nil {
				b.Error("message not delivered")
				return
			}
		}
	})
}

// BenchmarkLocate measures directory lookup throughput with 8
// concurrent readers — the pure read-side scaling of the location
// directory (serial lookups are bench/'s comm.locate_ns).
func BenchmarkLocate(b *testing.B) {
	const entities = 1024
	n := NewNetwork(8, LatencyModel{})
	for i := 0; i < entities; i++ {
		if err := n.Register(EntityID(i+1), i%8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := EntityID(1)
		for pb.Next() {
			if _, err := n.Locate(id); err != nil {
				b.Error(err)
				return
			}
			id++
			if id > entities {
				id = 1
			}
		}
	})
}
