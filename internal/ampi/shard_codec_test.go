package ampi

// Hostile-input hardening for the cross-process record codec: claimed
// counts near MaxInt64 must fail the bound check cleanly instead of
// overflowing the product and attempting a huge allocation.

import (
	"reflect"
	"strings"
	"testing"

	"migflow/internal/core"
	"migflow/internal/pup"
)

// newShardedEventJob builds (without starting) a 4-rank event job on
// a 4-PE machine of which this process owns PEs 0 and 1 — ranks 2 and
// 3 live "elsewhere", so records for them can be installed here.
func newShardedEventJob(t *testing.T, prog Proc) *Job {
	t.Helper()
	m, err := core.NewMachine(core.Config{NumPEs: 4, LocalPELo: 0, LocalPEHi: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewProgram(m, 4, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestShardRecordHostileCounts(t *testing.T) {
	e := newShardedEventJob(t, Seq()).ev

	// n*16 would overflow to exactly 0 for 1<<60, slipping past a
	// multiplied bound; the division form must reject it.
	for _, n := range []int{-1, 1 << 60, 1<<63 - 1} {
		p := pup.NewGrowPacker()
		v := n
		if err := p.Int(&v); err != nil {
			t.Fatal(err)
		}
		if _, err := e.unpackSeqMap(pup.NewUnpacker(p.PackedBytes())); err == nil {
			t.Fatalf("unpackSeqMap accepted hostile count %d", n)
		}
	}
	// n*recMsgMin overflows to 0 for 1<<62 (recMsgMin = 60 = 4·15).
	for _, n := range []int{-1, 1 << 62, 1<<63 - 1} {
		p := pup.NewGrowPacker()
		v := n
		if err := p.Int(&v); err != nil {
			t.Fatal(err)
		}
		if _, err := e.unpackMsgs(pup.NewUnpacker(p.PackedBytes()), 0, "pending"); err == nil {
			t.Fatalf("unpackMsgs accepted hostile count %d", n)
		}
	}
}

func TestShardInstallRejectsGarbage(t *testing.T) {
	j := newShardedEventJob(t, Seq())
	for _, data := range [][]byte{nil, {1}, {1, 2, 3}, make([]byte, 64)} {
		if _, err := j.ShardInstall(data); err == nil {
			t.Fatalf("ShardInstall accepted %d-byte garbage record", len(data))
		}
	}
}

// wireRecord packs a well-formed cross-process record for rank 3 → PE 1
// with the given tree path and match spec and nothing buffered: what a
// peer that controls only those two fields can send.
func wireRecord(t *testing.T, path []int, spec matchSpec) []byte {
	t.Helper()
	p := pup.NewGrowPacker()
	rank, to, zero := uint64(3), uint64(1), 0.0
	plen, hasLocal, none := len(path), false, 0
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Uint64(&rank))
	must(p.Uint64(&to))
	for i := 0; i < 3; i++ { // depart, vt, busy
		must(p.Float64(&zero))
	}
	must(p.Int(&spec.src))
	must(p.Int(&spec.tag))
	must(p.Int(&plen))
	for i := range path {
		must(p.Int(&path[i]))
	}
	must(p.Bool(&hasLocal))
	for i := 0; i < 4; i++ { // pending, held, sendSeq, recvSeq
		must(p.Int(&none))
	}
	return p.PackedBytes()
}

// TestShardInstallRejectsHostilePath: the tree path crosses the same
// untrusted wire as the rest of the record. Every path that does not
// lead, exactly, to the plain receive the record claims to wait in — a
// Recv, what a RecvFrom resolves to for this rank, or the source a
// RecvEach cursor points at — is a named error that leaves the job
// untouched — the rank stays foreign,
// no epoch or remaining-count change — and the owning PE's next pump
// finds nothing to trip over. The one honest record then installs and
// parks.
func TestShardInstallRejectsHostilePath(t *testing.T) {
	start, wait := Ibarrier()
	recv8 := Recv(0, 8, nil)
	prog := Seq(
		Do(func(*PC) {}),
		Recv(0, 7, nil),
		Waitall(func(*PC) []*Req { return nil }),
		Seq(start, wait),
		For(3, func(int) Proc { return recv8 }),
		RecvEach(func(pc *PC) []int { return []int{0, pc.rank - 1, 0} }, 9, nil),
		RecvFrom(func(pc *PC) int { return pc.rank - 2 }, 10, nil),
	)
	j := newShardedEventJob(t, prog)
	e := j.ev
	epoch, remaining := e.migEpoch.Load(), e.remaining.Load()
	for _, tc := range []struct {
		name string
		path []int
		spec matchSpec
		want string
	}{
		{"negative index", []int{-1}, matchSpec{0, 7}, "index -1 at depth 0 is outside a 7-way"},
		{"index past the Seq", []int{7}, matchSpec{0, 7}, "index 7 at depth 0 is outside a 7-way"},
		{"index past the For", []int{4, 3}, matchSpec{0, 8}, "index 3 at depth 1 is outside a 3-way"},
		{"truncated int32 alias of a valid index", []int{1 << 32}, matchSpec{0, 7}, "outside a 7-way"},
		{"empty path", nil, matchSpec{0, 7}, "ends inside a 7-way"},
		{"short path", []int{4}, matchSpec{0, 8}, "ends inside a 3-way"},
		{"over-long path", []int{1, 0}, matchSpec{0, 7}, "reaches a Recv with 1 frames unused"},
		{"leads to a Do", []int{0}, matchSpec{0, 7}, "not a plain Recv"},
		{"leads to a Waitall", []int{2}, matchSpec{0, 7}, "ampi.waitallProc, not a plain Recv"},
		{"leads to a collective wait", []int{3, 1}, matchSpec{0, 7}, "ampi.collWaitProc, not a plain Recv"},
		{"spec mismatch", []int{1}, matchSpec{0, 9}, "leads to Recv(0, 7) but the record waits for (0, 9)"},
		{"spec mismatch under For", []int{4, 2}, matchSpec{0, 7}, "leads to Recv(0, 8)"},
		{"RecvEach without its cursor", []int{5}, matchSpec{0, 9}, "ends inside a 3-way ampi.recvEachProc at depth 1"},
		{"RecvEach cursor -1", []int{5, -1}, matchSpec{0, 9}, "index -1 at depth 1 is outside a 3-way ampi.recvEachProc"},
		{"RecvEach cursor = len", []int{5, 3}, matchSpec{0, 9}, "index 3 at depth 1 is outside a 3-way ampi.recvEachProc"},
		{"RecvEach trailing path", []int{5, 1, 0}, matchSpec{2, 9}, "reaches a Recv with 1 frames unused"},
		{"RecvEach wrong source for its cursor", []int{5, 1}, matchSpec{0, 9}, "leads to Recv(2, 9) but the record waits for (0, 9)"},
		{"RecvEach wrong tag", []int{5, 0}, matchSpec{0, 8}, "leads to Recv(0, 9) but the record waits for (0, 8)"},
		{"RecvFrom with a cursor", []int{6, 0}, matchSpec{1, 10}, "reaches a Recv with 1 frames unused"},
		{"RecvFrom resolves elsewhere for this rank", []int{6}, matchSpec{3, 10}, "leads to Recv(1, 10) but the record waits for (3, 10)"},
	} {
		_, err := j.ShardInstall(wireRecord(t, tc.path, tc.spec))
		if err == nil || !strings.Contains(err.Error(), "tree path") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: ShardInstall error = %v, want a tree-path error containing %q", tc.name, err, tc.want)
		}
		if j.ShardOwns(3) {
			t.Fatalf("%s: rejected record still flipped rank 3 into this process", tc.name)
		}
		if e.migEpoch.Load() != epoch || e.remaining.Load() != remaining {
			t.Fatalf("%s: rejected record moved epoch %d→%d, remaining %d→%d",
				tc.name, epoch, e.migEpoch.Load(), remaining, e.remaining.Load())
		}
		if er := &e.store()[3]; er.pc.stack != nil || er.pc.Local != nil || er.hasWait {
			t.Fatalf("%s: rejected record left state in rank 3's slot", tc.name)
		}
		j.m.RunUntilQuiescent() // must not panic
	}

	for _, honest := range []struct {
		path []int
		spec matchSpec
	}{
		{[]int{1}, matchSpec{0, 7}},
		{[]int{4, 2}, matchSpec{0, 8}},
		{[]int{5, 1}, matchSpec{2, 9}}, // RecvEach, waiting for its second source
		{[]int{6}, matchSpec{1, 10}},   // RecvFrom, resolved for rank 3
	} {
		path, spec := honest.path, honest.spec
		j := newShardedEventJob(t, prog)
		if r, err := j.ShardInstall(wireRecord(t, path, spec)); err != nil || r != 3 {
			t.Fatalf("path %v: honest record: (%d, %v)", path, r, err)
		}
		if !j.ShardOwns(3) || j.ShardMigratable(3) {
			t.Fatalf("path %v: after install owns=%v migratable=%v, want true/false until the first activation", path, j.ShardOwns(3), j.ShardMigratable(3))
		}
		j.m.RunUntilQuiescent()
		er := &j.ev.store()[3]
		if !j.ShardMigratable(3) || er.waiting != spec {
			t.Fatalf("path %v: installed rank did not park at its Recv (waiting %+v)", path, er.waiting)
		}
		// What installs must be what extracts: the path read back off
		// the rebuilt stack is the path that built it.
		if got := er.pc.treePath(); !reflect.DeepEqual(got, path) {
			t.Fatalf("tree path round trip: built from %v, reads back %v", path, got)
		}
	}
}

// TestShardRecvEachRoundTrip moves a rank parked in the middle of a
// RecvEach between two workers' jobs over the same tree: the extracted
// record's path ends in the statement's cursor, the installing side
// re-reads the sources for the rank and resumes the intake at the one
// it was waiting for, and the intake then runs to its end there.
func TestShardRecvEachRoundTrip(t *testing.T) {
	got := []int{}
	prog := Seq(
		Do(func(pc *PC) {
			if pc.rank != 0 {
				pc.Send(0, 5, nil)
			}
		}),
		RecvEach(func(pc *PC) []int {
			if pc.rank == 0 {
				return []int{1, 3, 2}
			}
			return nil
		}, 5, func(_ *PC, _ []byte, from int) { got = append(got, from) }),
	)
	// Worker A owns PEs 0-1, so ranks 0 and 1: rank 0 hears from rank 1
	// and parks waiting for rank 3, whom this worker does not run.
	a := newShardedEventJob(t, prog)
	a.Run()
	era := &a.ev.store()[0]
	if !a.ShardMigratable(0) || era.waiting != (matchSpec{3, 5}) {
		t.Fatalf("rank 0 on worker A: migratable=%v waiting %+v, want parked for (3, 5)", a.ShardMigratable(0), era.waiting)
	}
	if path := era.pc.treePath(); !reflect.DeepEqual(path, []int{1, 1}) {
		t.Fatalf("rank 0's tree path is %v, want [1 1]: the Seq child, then the RecvEach cursor", path)
	}
	data, err := a.ShardExtract(0, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Worker B owns PEs 2-3. It adopts rank 0, then runs ranks 2 and 3,
	// whose halos now find rank 0 at home.
	m, err := core.NewMachine(core.Config{NumPEs: 4, LocalPELo: 2, LocalPEHi: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProgram(m, 4, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := b.ShardInstall(data); err != nil || r != 0 {
		t.Fatalf("ShardInstall on worker B: (%d, %v)", r, err)
	}
	b.Run()
	erb := &b.ev.store()[0]
	if !erb.done || !reflect.DeepEqual(got, []int{1, 3, 2}) {
		t.Fatalf("rank 0 on worker B: done=%v, heard from %v, want the whole intake [1 3 2] in order", erb.done, got)
	}
}

func TestMergeSeqMax(t *testing.T) {
	if got := mergeSeqMax(nil, nil); got != nil {
		t.Fatalf("merge of two nils = %v", got)
	}
	src := map[int]uint64{1: 5, 2: 3}
	if got := mergeSeqMax(nil, src); len(got) != 2 || got[1] != 5 {
		t.Fatalf("merge into nil = %v", got)
	}
	dst := map[int]uint64{1: 7, 3: 1}
	got := mergeSeqMax(dst, src)
	want := map[int]uint64{1: 7, 2: 3, 3: 1}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("merged[%d] = %d, want %d (full: %v)", k, got[k], v, got)
		}
	}
}
