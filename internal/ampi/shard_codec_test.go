package ampi

// Hostile-input hardening for the record codec: claimed counts near
// MaxInt64 must fail the bound check cleanly instead of overflowing the
// product and attempting a huge allocation, and a tree path must lead,
// exactly, to a statement the rank can be parked in.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
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

// cursors reads a rank's stack back as the record ships it.
func cursors(pc *PC) []int {
	var path []int
	for _, f := range pc.stack {
		path = append(path, f.i)
	}
	return path
}

func TestShardRecordHostileCounts(t *testing.T) {
	e := newShardedEventJob(t, Seq()).ev
	count := func(n int) *pup.PUPer {
		p := pup.NewGrowPacker()
		if err := p.Int(&n); err != nil {
			t.Fatal(err)
		}
		return pup.NewUnpacker(p.PackedBytes())
	}
	// n*16 would overflow to exactly 0 for 1<<60, slipping past a
	// multiplied bound; the division form must reject it.
	for _, n := range []int{-1, 1 << 60, 1<<63 - 1} {
		var mp map[int]uint64
		if err := e.pupSeqMap(count(n), &mp); err == nil {
			t.Fatalf("pupSeqMap accepted hostile count %d", n)
		}
	}
	// n*recMsgMin overflows to 0 for 1<<62 (recMsgMin = 60 = 4·15).
	for _, n := range []int{-1, 1 << 62, 1<<63 - 1} {
		var msgs []*comm.Message
		if err := e.pupMsgs(count(n), &msgs, 0); err == nil {
			t.Fatalf("pupMsgs accepted hostile count %d", n)
		}
	}
	for _, n := range []int{-1, 1 << 61, 1<<63 - 1} {
		var r record
		if err := e.pupRuns(count(n), &r, &e.job.store()[0].pc); err == nil {
			t.Fatalf("pupRuns accepted hostile count %d", n)
		}
		if err := e.pupPath(count(n), &r, &e.job.store()[0].pc); err == nil {
			t.Fatalf("pupPath accepted hostile count %d", n)
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

// wireRecord packs a well-formed record for rank 3 → PE 1 with the
// given frame cursors and match spec and nothing else: what a peer that
// controls only those two fields can send.
func wireRecord(t *testing.T, path []int, spec matchSpec) []byte {
	t.Helper()
	p := pup.NewGrowPacker()
	rank, to, zero, hasLocal, none, plen := uint64(3), uint64(1), 0.0, false, 0, len(path)
	fields := []any{&rank, &to, &zero, &zero, &zero, &spec.src, &spec.tag, &hasLocal, &none, &plen}
	for i := range path {
		fields = append(fields, &path[i])
	}
	fields = append(fields, &none, &none, &none, &none) // pending, held, sendSeq, recvSeq
	if err := pupFields(p, fields...); err != nil {
		t.Fatal(err)
	}
	return p.PackedBytes()
}

// TestShardInstallRejectsHostilePath: the tree path crosses the same
// untrusted wire as the rest of the record. Every path that does not
// lead, exactly, to a statement a rank can be parked in — at a cursor
// it can be parked at, waiting for what the record says — is a named
// error that leaves the job untouched: the rank stays foreign, no epoch
// or remaining-count change, and the owning PE's next pump finds
// nothing to trip over. The honest records then install and park.
func TestShardInstallRejectsHostilePath(t *testing.T) {
	start, wait := Ibarrier()
	recv8 := Recv(0, 8, nil)
	prog := Seq(
		Do(func(*PC) {}),
		Recv(0, 7, nil),
		Waitall(func(*PC) []*Req { return nil }),
		Seq(start, wait),
		For(3, func(int) Proc { return recv8 }),
		RecvEach(func(pc *PC) []int { return []int{0, pc.Rank() - 1, 0} }, 9, nil),
		RecvFrom(func(pc *PC) int { return pc.Rank() - 2 }, 10, nil),
		Migrate(loadbalance.RotateLB{}),
	)
	j := newShardedEventJob(t, prog)
	e := j.ev
	epoch, remaining := e.migEpoch.Load(), e.job.remaining.Load()
	for _, tc := range []struct {
		name string
		path []int
		spec matchSpec
		want string
	}{
		{"cursor 0 into a Seq", []int{0, 0}, matchSpec{0, 7}, "cursor 0 at depth 0 is outside a 8-way Seq"},
		{"cursor past the Seq", []int{9, 0}, matchSpec{0, 7}, "cursor 9 at depth 0 is outside a 8-way Seq"},
		{"cursor past the For", []int{5, 4, 0}, matchSpec{0, 8}, "cursor 4 at depth 1 is outside a 3-way For"},
		{"truncated int32 alias of a valid cursor", []int{1<<32 + 2, 0}, matchSpec{0, 7}, "outside a 8-way Seq"},
		{"path ends in a Seq", []int{2}, matchSpec{0, 7}, "ends inside a ampi.seqProc at depth 0"},
		{"path ends in a For", []int{5, 2}, matchSpec{0, 8}, "ends inside a ampi.forProc at depth 1"},
		{"over-long path", []int{2, 0, 0}, matchSpec{0, 7}, "reaches a ampi.recvProc at depth 1 with 1 frames unused"},
		{"leads to a Do", []int{1, 0}, matchSpec{0, 7}, "leads to a ampi.doProc, which never parks"},
		{"leads to a collective start", []int{4, 1, 0}, matchSpec{0, 7}, "leads to a ampi.collStartProc, which never parks"},
		{"Waitall with no pending request", []int{3, 0}, matchSpec{0, 7}, "parks in a ampi.waitallProc at cursor 0, where it cannot wait"},
		{"collective wait with no run", []int{4, 2, 0}, matchSpec{0, 7}, "parks in a ampi.collWaitProc at cursor 0, where it cannot wait"},
		{"Recv with a cursor", []int{2, 1}, matchSpec{0, 7}, "parks in a ampi.recvProc at cursor 1"},
		{"gate without its cursor", []int{8, 0}, matchSpec{}, "parks at the LB gate with cursor 0"},
		{"spec mismatch", []int{2, 0}, matchSpec{0, 9}, "leads to a receive from (0, 7) but the record waits for (0, 9)"},
		{"spec mismatch under For", []int{5, 3, 0}, matchSpec{0, 7}, "leads to a receive from (0, 8)"},
		{"RecvEach cursor -1", []int{6, -1}, matchSpec{0, 9}, "parks in a ampi.recvEachProc at cursor -1"},
		{"RecvEach cursor = len", []int{6, 3}, matchSpec{0, 9}, "parks in a ampi.recvEachProc at cursor 3"},
		{"RecvEach trailing path", []int{6, 1, 0}, matchSpec{2, 9}, "reaches a ampi.recvEachProc at depth 1 with 1 frames unused"},
		{"RecvEach wrong source for its cursor", []int{6, 1}, matchSpec{0, 9}, "leads to a receive from (2, 9) but the record waits for (0, 9)"},
		{"RecvEach wrong tag", []int{6, 0}, matchSpec{0, 8}, "leads to a receive from (0, 9) but the record waits for (0, 8)"},
		{"RecvFrom resolves elsewhere for this rank", []int{7, 0}, matchSpec{3, 10}, "leads to a receive from (1, 10) but the record waits for (3, 10)"},
	} {
		_, err := j.ShardInstall(wireRecord(t, tc.path, tc.spec))
		if err == nil || !strings.Contains(err.Error(), "tree path") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: ShardInstall error = %v, want a tree-path error containing %q", tc.name, err, tc.want)
		}
		if j.ShardOwns(3) {
			t.Fatalf("%s: rejected record still flipped rank 3 into this process", tc.name)
		}
		if e.migEpoch.Load() != epoch || e.job.remaining.Load() != remaining {
			t.Fatalf("%s: rejected record moved epoch %d→%d, remaining %d→%d",
				tc.name, epoch, e.migEpoch.Load(), remaining, e.job.remaining.Load())
		}
		if er := &e.job.store()[3]; len(er.pc.stack) != 0 || er.pc.Local != nil || er.hasWait {
			t.Fatalf("%s: rejected record left state in rank 3's slot", tc.name)
		}
		j.m.RunUntilQuiescent() // must not panic
	}

	for _, honest := range []struct {
		path []int
		spec matchSpec
	}{
		{nil, matchSpec{0, 7}}, // not started: its first activation starts it, and it parks in the Recv
		{[]int{2, 0}, matchSpec{0, 7}},
		{[]int{5, 3, 0}, matchSpec{0, 8}},
		{[]int{6, 1}, matchSpec{2, 9}},  // RecvEach, waiting for its second source
		{[]int{7, 0}, matchSpec{1, 10}}, // RecvFrom, resolved for rank 3
	} {
		path, spec := honest.path, honest.spec
		j := newShardedEventJob(t, prog)
		if r, err := j.ShardInstall(wireRecord(t, path, spec)); err != nil || r != 3 {
			t.Fatalf("path %v: honest record: (%d, %v)", path, r, err)
		}
		if !j.ShardOwns(3) {
			t.Fatalf("path %v: installed rank is not owned here", path)
		}
		j.m.RunUntilQuiescent()
		er := &j.store()[3]
		if !er.hasWait || er.waiting != spec {
			t.Fatalf("path %v: installed rank did not park at its receive (waiting %+v, parked %v)", path, er.waiting, er.hasWait)
		}
		// What installs must be what extracts: the cursors read back off
		// the rebuilt stack are the ones that built it.
		if got := cursors(&er.pc); path != nil && !reflect.DeepEqual(got, path) {
			t.Fatalf("path round trip: built from %v, reads back %v", path, got)
		}
		// The rebuilt stack is allocated once, at the program's depth.
		if c := cap(er.pc.stack); c != j.depth {
			t.Fatalf("path %v: installed stack has capacity %d, want the program's depth %d", path, c, j.depth)
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
			if pc.Rank() != 0 {
				pc.Send(0, 5, nil)
			}
		}),
		RecvEach(func(pc *PC) []int {
			if pc.Rank() == 0 {
				return []int{1, 3, 2}
			}
			return nil
		}, 5, func(_ *PC, _ []byte, from int) { got = append(got, from) }),
	)
	// Worker A owns PEs 0-1, so ranks 0 and 1: rank 0 hears from rank 1
	// and parks waiting for rank 3, whom this worker does not run.
	a := newShardedEventJob(t, prog)
	a.Run()
	era := &a.store()[0]
	if !a.ShardMigratable(0) || era.waiting != (matchSpec{3, 5}) {
		t.Fatalf("rank 0 on worker A: migratable=%v waiting %+v, want parked for (3, 5)", a.ShardMigratable(0), era.waiting)
	}
	if path := cursors(&era.pc); !reflect.DeepEqual(path, []int{2, 1}) {
		t.Fatalf("rank 0's cursors are %v, want [2 1]: inside the Seq's second child, then the RecvEach cursor", path)
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
	erb := &b.store()[0]
	if !erb.done || !reflect.DeepEqual(got, []int{1, 3, 2}) {
		t.Fatalf("rank 0 on worker B: done=%v, heard from %v, want the whole intake [1 3 2] in order", erb.done, got)
	}
}

// FuzzRecord throws bytes at the record codec: a decoded record is
// either a named error or, installed into its slot, extracts again
// byte-identically, and decoding never panics. The seeds are records
// extracted at every blocking point of blockingPoints; row picks the
// program a record is decoded against.
func FuzzRecord(f *testing.F) {
	opts := Options{Mode: ModeEvent, MsgOverheadNs: 250, LocalPUP: mixLocalPUP}
	points := blockingPoints()
	for i, bp := range points {
		m := newMachine(f, 4, nil)
		j, err := NewProgram(m, 4, opts, bp.prog(make([]float64, 4)))
		if err != nil {
			f.Fatal(err)
		}
		j.Start()
		runPEs(m, 0, 1)
		er := &j.store()[0]
		p := pup.NewGrowPacker()
		er.mu.Lock()
		err = j.ev.extractLocked(p, er, 3, 1234.5)
		er.mu.Unlock()
		if err != nil {
			f.Fatalf("%s: %v", bp.name, err)
		}
		f.Add(uint8(i), p.PackedBytes())
	}
	f.Fuzz(func(t *testing.T, row uint8, data []byte) {
		bp := points[int(row)%len(points)]
		j, err := NewProgram(newMachine(t, 4, nil), 4, opts, bp.prog(make([]float64, 4)))
		if err != nil {
			t.Fatal(err)
		}
		e := j.ev
		var rank uint64
		if err := pup.NewUnpacker(data).Uint64(&rank); err != nil || rank >= 4 {
			return
		}
		er := &e.job.store()[rank]
		er.mu.Lock()
		defer er.mu.Unlock()
		r, err := e.installLocked(er, data)
		if err != nil {
			return
		}
		p := pup.NewGrowPacker()
		if err := e.extractLocked(p, er, r.toPE, r.depart); err != nil {
			t.Fatalf("%s: an installed record does not extract: %v", bp.name, err)
		}
		if got := p.PackedBytes(); !bytes.Equal(got, data) {
			t.Fatalf("%s: record re-encodes differently:\n in  %x\n out %x", bp.name, data, got)
		}
	})
}
