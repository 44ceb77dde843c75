package vmem

import (
	"sync/atomic"
	"testing"
)

// BenchmarkSpaceRWParallel runs a 64 KiB cross-page copy (write, then
// read back) in 256-byte pieces — the access size of PUP
// serialization, frame push/pop and the typed accessors, where
// per-access page-table overhead dominates the byte copy — with 8
// workers in disjoint windows of one shared Space: the multi-reader
// contention profile of parallel PEs. Windows start mid-page so pieces
// straddle page boundaries. The serial substrate cost is bench/'s
// vmem.rw_ns_per_kb and vmem.map_unmap_ns.
func BenchmarkSpaceRWParallel(b *testing.B) {
	const (
		workers = 8
		winSize = 64 << 10
		piece   = 256
	)
	s := NewSpace(0)
	base := Addr(0x100000)
	winPages := uint64(winSize)/PageSize + 2
	for w := 0; w < workers; w++ {
		if err := s.Map(base.Add(uint64(w)*winPages*PageSize), winPages*PageSize, ProtRW); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.SetParallelism(1)
	b.SetBytes(2 * winSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1)-1) % workers
		start := base.Add(uint64(w)*winPages*PageSize + PageSize/2)
		buf := make([]byte, piece)
		for pb.Next() {
			for off := uint64(0); off < winSize; off += piece {
				if err := s.Write(start.Add(off), buf); err != nil {
					b.Error(err)
					return
				}
			}
			for off := uint64(0); off < winSize; off += piece {
				if err := s.Read(start.Add(off), buf); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}
