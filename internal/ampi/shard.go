package ampi

// The continuation record: the one codec that moves an event rank,
// between PEs of this process (eventRecord, the LB batch), across an OS
// process boundary (ShardExtract/ShardInstall — the continuation
// analogue of shipping a thread's stack image over a socket), or to
// disk (Checkpoint and Restore, checkpoint.go). Nothing travels by
// reference, so the record carries all a destination needs that is not
// shared program code: identity, destination PE, departure clock,
// virtual time, load; the match spec of the receive the rank waits in;
// pc.Local, through Options.LocalPUP; each active collective run — its
// site's number (numberSites), schedule cursor and accumulator; one
// cursor per stack frame, outermost first; buffered messages in sender
// order, each sender by rank, and, in sharded runs, the per-peer
// stream state. Equal rank state packs to equal bytes on any placement.
//
// Install rebuilds the stack by one validating descent of the shared
// tree (pupPath): every Seq/For cursor is checked against its arity,
// and the path ends exactly at a statement the rank can be parked in,
// waiting for what the record says (checkLeaf), or is empty for a rank
// that has not started:
//
//	Recv, RecvFrom    cursor 0; waits for the statement's (src, tag)
//	RecvEach          waits for srcs(pc)[cursor]
//	Waitall           waits for reqs(pc)[cursor], read from the Local
//	collective wait   cursor 0; waits for what its run's cursor points at
//	Migrate, Checkpoint  cursor 1: parked at the gate
//
// Only For bodies and operand functions run during the descent, so no
// completed work re-runs and virtual time is untouched. Every count is
// bounded by the bytes that carry it, and a record that fails any
// check is refused before the slot, directory, epoch or rank count
// change.
//
// Across processes, the source worker's ShardExtract flips its
// directory, owner word and epoch, so stragglers chase over the socket,
// and the shard layer ships the bytes to the destination (a control
// frame) and a move notice to every other worker (ShardNoteMove). The
// destination's ShardInstall fills the slot and flips its directory
// under the rank's lock, then posts a tagInstalled activation so the
// rank's first step runs on its PE's own goroutine. Link FIFO puts the
// record ahead of anything the source forwards later, but cannot order
// two routes: a sender that learned the new address can overtake an
// older message still chasing through the old owner. The per-pair
// stream numbers (sendSeq/recvSeq, stamped on every sharded payload)
// let deliver hold such an overtaker until the gap fills.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"migflow/internal/comm"
	"migflow/internal/pup"
)

// tagInstalled is the internal activation an install posts
// (scheduleActivation); user tags are ≥ 0 and collective tags live in
// the -100 block.
const tagInstalled = -150

// ShardOwns reports whether rank r currently resides in this process
// (sharded event jobs).
func (j *Job) ShardOwns(r int) bool {
	e := j.ev
	if e == nil || !e.sharded || r < 0 || r >= j.size {
		return false
	}
	return j.m.LocalPE(e.peOf(r))
}

// ShardMigratable reports whether rank r could be extracted right
// now: resident here and shippable.
func (j *Job) ShardMigratable(r int) bool {
	e := j.ev
	if e == nil || !e.sharded || r < 0 || r >= j.size {
		return false
	}
	ranks := j.store()
	if ranks == nil || !j.m.LocalPE(e.peOf(r)) {
		return false
	}
	s := &ranks[r]
	s.mu.Lock()
	defer s.mu.Unlock()
	return e.shippableLocked(s) == nil
}

// shippableLocked says why the rank has no record to extract right
// now, or nil. Every blocking point has a wire form; what is left is a
// finished rank, a Local without the job's LocalPUP, and a collective
// run whose site the program's numbering never met (a For body built
// it while running). s.mu held.
func (e *eventEngine) shippableLocked(s *slot) error {
	switch {
	case s.done:
		return fmt.Errorf("already finished")
	case s.pc.Local != nil && e.job.opts.LocalPUP == nil:
		return fmt.Errorf("has program state but the job has no LocalPUP")
	}
	for run := s.pc.colls; run != nil; run = run.link {
		if _, ok := e.job.siteNum[run.site]; run.active && !ok {
			return fmt.Errorf("inside collective %s, whose site the program's numbering never met", run.site.name)
		}
	}
	return nil
}

// ShardExtract serializes rank's continuation record for another
// process and commits the move: directory, owner word, and epoch flip
// before it returns, so every later message to the rank forwards over
// the socket. The caller ships the returned bytes to the worker
// owning toPE (ShardInstall) and notifies the rest (ShardNoteMove).
func (j *Job) ShardExtract(rank, toPE int) ([]byte, error) {
	e := j.ev
	if e == nil || !e.sharded {
		return nil, fmt.Errorf("ampi: ShardExtract needs a sharded event job")
	}
	if rank < 0 || rank >= j.size {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d of %d", rank, j.size)
	}
	if toPE < 0 || toPE >= j.m.NumPEs() {
		return nil, fmt.Errorf("ampi: ShardExtract: PE %d out of range", toPE)
	}
	if j.m.LocalPE(toPE) {
		return nil, fmt.Errorf("ampi: ShardExtract: PE %d is local; use Rebalance for in-process moves", toPE)
	}
	ranks := j.store()
	s := &ranks[rank]
	s.mu.Lock()
	defer s.mu.Unlock()
	srcPE := e.peOf(rank)
	if !j.m.LocalPE(srcPE) {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d resides on PE %d, not in this process", rank, srcPE)
	}
	p := pup.NewGrowPacker()
	if err := e.extractLocked(p, s, toPE, j.m.PE(srcPE).Clock.Now()); err != nil {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d %w", rank, err)
	}
	// Commit: one table batch + owner word + epoch bump, exactly the
	// in-process LB sequence, after which stragglers chase via Forward.
	if err := j.m.Network().MoveRangeBatch(e.base, []comm.RangeMove{{Index: rank, To: toPE}}); err != nil {
		return nil, fmt.Errorf("ampi: ShardExtract: %w", err)
	}
	e.pes[rank].Store(int32(toPE))
	e.migEpoch.Add(1)
	j.remaining.Add(-1)
	return p.PackedBytes(), nil
}

// ShardNoteMove applies another process's move to this worker's
// directory and owner word (idempotent). Workers not party to a
// migration still need it so their senders address the new owner.
func (j *Job) ShardNoteMove(rank, toPE int) error {
	e := j.ev
	if e == nil || !e.sharded {
		return fmt.Errorf("ampi: ShardNoteMove needs a sharded event job")
	}
	if rank < 0 || rank >= j.size || toPE < 0 || toPE >= j.m.NumPEs() {
		return fmt.Errorf("ampi: ShardNoteMove: rank %d → PE %d out of range", rank, toPE)
	}
	if e.peOf(rank) == toPE {
		return nil
	}
	if err := j.m.Network().MoveRangeBatch(e.base, []comm.RangeMove{{Index: rank, To: toPE}}); err != nil {
		return fmt.Errorf("ampi: ShardNoteMove: %w", err)
	}
	e.pes[rank].Store(int32(toPE))
	e.migEpoch.Add(1)
	return nil
}

// ShardInstall adopts a record extracted by another process: under the
// rank's lock it validates and installs the record (installLocked) and
// flips the local directory, so a delivery for the rank either
// forwards or finds it whole. It then charges the machine's migration
// bookkeeping and schedules the rank's first activation on the owning
// PE. An error leaves the job as it was. Returns the installed rank.
func (j *Job) ShardInstall(data []byte) (int, error) {
	e := j.ev
	if e == nil || !e.sharded {
		return -1, fmt.Errorf("ampi: ShardInstall needs a sharded event job")
	}
	var id uint64
	if err := pup.NewUnpacker(data).Uint64(&id); err != nil || id >= uint64(j.size) {
		return -1, fmt.Errorf("ampi: ShardInstall: the record names no rank of %d", j.size)
	}
	rank := int(id)
	s := &j.store()[rank]
	s.mu.Lock()
	var r record
	var err error
	if j.m.LocalPE(e.peOf(rank)) {
		err = fmt.Errorf("the rank already lives in this process")
	} else if r, err = e.installLocked(s, data); err == nil {
		e.pes[rank].Store(int32(r.toPE))
		e.migEpoch.Add(1)
		err = j.m.Network().MoveRangeBatch(e.base, []comm.RangeMove{{Index: rank, To: r.toPE}})
	}
	s.mu.Unlock()
	if err != nil {
		return -1, fmt.Errorf("ampi: ShardInstall: rank %d: %w", rank, err)
	}
	j.remaining.Add(1)
	j.m.FinishRemoteMigration(e.idOf(rank), r.toPE, r.depart, len(data))
	if err := e.scheduleActivation(rank, r.toPE); err != nil {
		return rank, fmt.Errorf("ampi: ShardInstall: scheduling activation: %w", err)
	}
	return rank, nil
}

// scheduleActivation posts rank r the tagInstalled activation on its
// owner pe, so its first step after an install runs on that PE's
// goroutine, not the installer's. Virtual time only moves if a message
// is consumed: at the same instants it would have without the move.
func (e *eventEngine) scheduleActivation(r, pe int) error {
	act := comm.NewMessage()
	act.To, act.From, act.Tag = e.idOf(r), e.idOf(r), tagInstalled
	return e.job.m.Network().DeliverLocal(pe, []*comm.Message{act})
}

// record is one rank's continuation record between its slot and the
// wire: extractLocked fills it from the slot, installLocked from the
// bytes, validating all of it before the slot changes.
type record struct {
	rank, toPE       int
	depart, vt, busy float64
	waiting          matchSpec
	local            any
	runs             []collRun // the active ones, by site number
	stack            []frame
	pending          []*comm.Message
	seq              rankSeq // sharded runs only
}

// packLocked packs s's record into p and leaves the slot as it is: a
// checkpoint's copy of the rank (checkpoint.go). s.mu held.
func (e *eventEngine) packLocked(p *pup.PUPer, s *slot, toPE int, depart float64) (record, error) {
	if err := e.shippableLocked(s); err != nil {
		return record{}, err
	}
	pc := &s.pc
	r := record{rank: pc.Rank(), toPE: toPE, depart: depart, vt: pc.vt, busy: s.busy,
		waiting: s.waiting, local: pc.Local, stack: pc.stack, pending: s.mbox[s.head:]}
	// Canonical form: a rank at the gate waits for nothing (s.waiting
	// still names its last receive), and buffered messages go by
	// sender, each sender's in arrival order, since the order across
	// senders is the placement's. The slot's mailbox stays as it is.
	if pc.atGate() {
		r.waiting = matchSpec{}
	}
	bySender := func(a, b *comm.Message) int { return cmp.Compare(a.From, b.From) }
	if !slices.IsSortedFunc(r.pending, bySender) {
		r.pending = slices.Clone(r.pending)
		slices.SortStableFunc(r.pending, bySender)
	}
	if e.seq != nil {
		r.seq = e.seq[pc.rank]
	}
	for run := pc.colls; run != nil; run = run.link {
		if run.active {
			r.runs = append(r.runs, *run)
		}
	}
	if len(r.runs) > 1 {
		slices.SortFunc(r.runs, func(a, b collRun) int { return e.job.siteNum[a.site] - e.job.siteNum[b.site] })
	}
	return r, e.pupRecord(p, &r, pc)
}

// extractLocked packs s's record into p and empties the slot — the
// pack routine behind every move. The slot keeps its frame array and
// its collective runs for the record to come back into. s.mu held.
func (e *eventEngine) extractLocked(p *pup.PUPer, s *slot, toPE int, depart float64) error {
	r, err := e.packLocked(p, s, toPE, depart)
	if err != nil {
		return err
	}
	for _, msgs := range [][]*comm.Message{r.pending, r.seq.held} {
		for _, m := range msgs {
			m.Free() // the record carries a copy
		}
	}
	pc := &s.pc
	clear(pc.stack)
	pc.stack, pc.Local = pc.stack[:0], nil
	for run := pc.colls; run != nil; run = run.link {
		run.active, run.data, run.entries, run.chunks = false, nil, nil, nil
	}
	clear(s.mbox)
	s.mbox, s.head, s.hasWait, s.busy = s.mbox[:0], 0, false, 0
	if e.seq != nil {
		e.seq[pc.rank] = rankSeq{}
	}
	return nil
}

// installLocked decodes a record for s's rank and, once all of it has
// validated, writes it into the empty slot — the unpack routine behind
// every move. Messages that reached the slot while the rank was in
// transit are younger than the record's, so they queue behind them.
// s.mu held.
func (e *eventEngine) installLocked(s *slot, data []byte) (record, error) {
	var r record
	if err := e.pupRecord(pup.NewUnpacker(data), &r, &s.pc); err != nil {
		return r, err
	}
	pc := &s.pc
	pc.vt, pc.Local, pc.stack = r.vt, r.local, r.stack
	s.busy, s.waiting, s.hasWait = r.busy, r.waiting, false
	for i := range r.runs {
		run := pc.collAt(r.runs[i].site)
		if run == nil {
			run = e.job.carveRun()
			run.site, run.link, pc.colls = r.runs[i].site, pc.colls, run
		}
		run.collState, run.active = r.runs[i].collState, true
	}
	if len(r.pending) > 0 {
		s.mbox, s.head = append(r.pending, s.mbox[s.head:]...), 0
	}
	if e.seq != nil {
		e.seq[pc.rank] = r.seq
	}
	return r, nil
}

// pupRecord moves a record through p in wire order. Unpacking fills r
// and validates it against the job and the slot pc it is for.
func (e *eventEngine) pupRecord(p *pup.PUPer, r *record, pc *PC) error {
	rank, to, hasLocal := uint64(r.rank), uint64(r.toPE), r.local != nil
	if err := pupFields(p, &rank, &to, &r.depart, &r.vt, &r.busy, &r.waiting.src, &r.waiting.tag, &hasLocal); err != nil {
		return err
	}
	if p.IsUnpacking() {
		if rank != uint64(pc.Rank()) {
			return fmt.Errorf("record for rank %d installed into slot %d", rank, pc.rank)
		}
		if to >= uint64(e.job.m.NumPEs()) || !e.job.m.LocalPE(int(to)) {
			return fmt.Errorf("record for PE %d, which this process does not run", to)
		}
		r.rank, r.toPE = int(rank), int(to)
	}
	if hasLocal {
		if err := e.pupLocal(p, r); err != nil {
			return err
		}
	}
	if err := e.pupRuns(p, r, pc); err != nil {
		return err
	}
	if err := e.pupPath(p, r, pc); err != nil {
		return err
	}
	for _, msgs := range []*[]*comm.Message{&r.pending, &r.seq.held} {
		if err := e.pupMsgs(p, msgs, r.rank); err != nil {
			return err
		}
	}
	for _, mp := range []*map[int]uint64{&r.seq.sendSeq, &r.seq.recvSeq} {
		if err := e.pupSeqMap(p, mp); err != nil {
			return err
		}
	}
	if p.IsUnpacking() {
		if p.Remaining() != 0 {
			return fmt.Errorf("record carries %d trailing bytes", p.Remaining())
		}
		if e.seq == nil && len(r.seq.held)+len(r.seq.sendSeq)+len(r.seq.recvSeq) > 0 {
			return fmt.Errorf("record carries stream state, which only a sharded job keeps")
		}
	}
	return nil
}

// pupFields visits each field — *int, *int32, *uint64, *float64,
// *string, *bool or *[]byte — in order, stopping at the first error. An
// *int32 crosses the wire as an int, so narrowing a field leaves the
// bytes as they were; a value that does not fit is refused. An empty
// byte slice unpacks as nil: the wire cannot tell the two apart.
func pupFields(p *pup.PUPer, fields ...any) error {
	for _, f := range fields {
		var err error
		switch v := f.(type) {
		case *int:
			err = p.Int(v)
		case *int32:
			w := int(*v)
			if err = p.Int(&w); err == nil && int(int32(w)) != w {
				err = fmt.Errorf("value %d exceeds 32 bits", w)
			}
			*v = int32(w)
		case *uint64:
			err = p.Uint64(v)
		case *float64:
			err = p.Float64(v)
		case *string:
			err = p.String(v)
		case *bool:
			err = p.Bool(v)
		case *[]byte:
			if err = p.Bytes(v); err == nil && p.IsUnpacking() && len(*v) == 0 {
				*v = nil
			}
		default:
			err = fmt.Errorf("ampi: pupFields: unsupported field type")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// pupLocal moves pc.Local through the job's LocalPUP as one
// length-prefixed image, which must unpack exactly.
func (e *eventEngine) pupLocal(p *pup.PUPer, r *record) error {
	lpup := e.job.opts.LocalPUP
	if lpup == nil {
		return fmt.Errorf("record carries program state but the job has no LocalPUP")
	}
	var img []byte
	if p.IsPacking() {
		lp := pup.AcquirePacker()
		defer lp.Release()
		if _, err := lpup(lp, r.local); err != nil {
			return fmt.Errorf("LocalPUP: %w", err)
		}
		img = lp.PackedBytes()
	}
	if err := p.Bytes(&img); err != nil || p.IsPacking() {
		return err
	}
	lu := pup.NewUnpacker(img)
	local, err := lpup(lu, nil)
	switch {
	case err != nil:
		return fmt.Errorf("LocalPUP: %w", err)
	case lu.Remaining() != 0 || local == nil:
		return fmt.Errorf("LocalPUP left %d of %d bytes and rebuilt %T", lu.Remaining(), len(img), local)
	}
	r.local = local
	return nil
}

// runMin and entryMin are the minimum encoded sizes of one collective
// run (site, cursor, value, data length prefix, entry and chunk
// counts) and one gather entry (rank, data length prefix).
const (
	runMin   = 5*8 + 4
	entryMin = 8 + 4
)

// pupRuns moves the rank's active collective runs, in site-number
// order: the site's number, the schedule cursor and the accumulator.
// Unpacking derives each run's schedule again and checks the cursor
// and the accumulator against it.
func (e *eventEngine) pupRuns(p *pup.PUPer, r *record, pc *PC) error {
	n := len(r.runs)
	if err := p.Int(&n); err != nil {
		return err
	}
	if p.IsUnpacking() {
		if n < 0 || n > p.Remaining()/runMin {
			return fmt.Errorf("record claims %d collective runs with %d bytes remaining", n, p.Remaining())
		}
		r.runs = make([]collRun, n)
	}
	for i := range r.runs {
		run := &r.runs[i]
		num, nent, nchunk := e.job.siteNum[run.site], len(run.entries), len(run.chunks)
		if err := pupFields(p, &num, &run.next, &run.val, &run.data, &nent, &nchunk); err != nil {
			return err
		}
		if p.IsUnpacking() {
			if num < 0 || num >= len(e.job.sites) || i > 0 && num <= e.job.siteNum[r.runs[i-1].site] {
				return fmt.Errorf("record names collective site %d out of order or outside the program's %d", num, len(e.job.sites))
			}
			site := e.job.sites[num]
			run.site, run.kind, run.combine = site, site.kind, site.combine
			if old := pc.collAt(site); old != nil {
				run.parent, run.children = old.parent, old.children
			} else {
				run.parent, run.children = e.job.family(site.kind, pc.rank, site.root)
			}
			chunks, ok := 0, run.next == 0
			if site.kind == collAlltoall || site.kind == collScatter && run.parent < 0 {
				chunks = e.job.size
			}
			if run.next > 0 {
				_, ok = run.at(run.next - 1)
			}
			if !ok || nchunk != chunks || nent < 0 || nent > p.Remaining()/entryMin {
				return fmt.Errorf("%s run: cursor %d, %d entries and %d chunks do not fit its schedule", site.name, run.next, nent, nchunk)
			}
			run.entries, run.chunks = make([]gatherEntry, nent), make([][]byte, nchunk)
		}
		for k := range run.entries {
			en := &run.entries[k]
			if err := pupFields(p, &en.rank, &en.data); err != nil {
				return err
			}
			if en.rank < 0 || en.rank >= e.job.size {
				return fmt.Errorf("%s run holds an entry for rank %d of %d", run.site.name, en.rank, e.job.size)
			}
		}
		for k := range run.chunks {
			if err := pupFields(p, &run.chunks[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// pupPath moves the frame stack as one cursor per frame, outermost
// first. Unpacking rebuilds the stack by one descent of the program
// tree — into the slot's spare frame array when it has one, else into
// the rank's carve of the job's blocks — with the record's Local in
// place for the operand functions.
func (e *eventEngine) pupPath(p *pup.PUPer, r *record, pc *PC) (err error) {
	n := len(r.stack)
	if err := p.Int(&n); err != nil {
		return err
	}
	if p.IsPacking() {
		for i := range r.stack {
			if err := p.Int(&r.stack[i].i); err != nil {
				return err
			}
		}
		return nil
	}
	if n < 0 || n > p.Remaining()/8 {
		return fmt.Errorf("record claims a tree path of %d frames with %d bytes remaining", n, p.Remaining())
	}
	if len(pc.stack) > 0 {
		return fmt.Errorf("record installed over a slot whose rank is running")
	}
	if r.stack = pc.stack[:0]; cap(r.stack) == 0 && n > 0 {
		r.stack = e.job.frameStack()
	}
	// The descent runs the program's operand functions on the record's
	// state, which the bytes chose: one that panics on it refuses the
	// record.
	local := pc.Local
	pc.Local = r.local
	defer func() {
		pc.Local = local
		if v := recover(); v != nil {
			err = fmt.Errorf("tree path: an operand panicked on the record's state: %v", v)
		}
	}()
	for node := e.job.prog; len(r.stack) < n; {
		f, depth := frame{p: node}, len(r.stack)
		if err = p.Int(&f.i); err != nil {
			return err
		}
		switch s := node.(type) {
		case seqProc:
			if f.i < 1 || f.i > len(s.ps) {
				return fmt.Errorf("tree path cursor %d at depth %d is outside a %d-way Seq", f.i, depth, len(s.ps))
			}
			node = s.ps[f.i-1]
		case forProc:
			if f.i < 1 || f.i > s.n {
				return fmt.Errorf("tree path cursor %d at depth %d is outside a %d-way For", f.i, depth, s.n)
			}
			node = s.body(f.i - 1)
		default:
			if depth != n-1 {
				return fmt.Errorf("tree path reaches a %T at depth %d with %d frames unused", node, depth, n-1-depth)
			}
			if err = checkLeaf(&f, r, pc); err != nil {
				return err
			}
		}
		r.stack = append(r.stack, f)
	}
	if n > 0 {
		switch last := r.stack[n-1].p; last.(type) {
		case seqProc, forProc:
			return fmt.Errorf("tree path ends inside a %T at depth %d", last, n-1)
		}
	}
	return nil
}

// checkLeaf validates the innermost frame f of a rebuilt stack: a
// statement a rank can be parked in, at a cursor it can be parked at,
// waiting for what the record says (the table in this file's header).
// A Waitall's request list is read again here.
func checkLeaf(f *frame, r *record, pc *PC) error {
	var src, tag int // compared at full width: an operand must not alias by truncation
	ok := f.i == 0
	switch s := f.p.(type) {
	case migrateProc:
		if f.i != 1 {
			return fmt.Errorf("tree path parks at the LB gate with cursor %d", f.i)
		}
		return nil
	case recvProc:
		src, tag = s.source(pc), s.tag
	case recvEachProc:
		srcs := s.srcs(pc)
		if ok = f.i >= 0 && f.i < len(srcs); ok {
			src, tag = srcs[f.i], s.tag
		}
	case waitallProc:
		f.reqs = s.reqs(pc)
		if ok = f.i >= 0 && f.i < len(f.reqs) && f.reqs[f.i] != nil; ok {
			q := f.reqs[f.i]
			ok, src, tag = q.isRecv && !q.done, q.src, q.tag
		}
	case collWaitProc:
		var run *collRun
		for i := range r.runs {
			if r.runs[i].site == s.site {
				run = &r.runs[i]
			}
		}
		if ok = ok && run != nil; ok {
			a, more := run.at(run.next)
			ok, src, tag = more && !a.send, a.peer, a.tag
		}
	default:
		return fmt.Errorf("tree path leads to a %T, which never parks", f.p)
	}
	switch {
	case !ok:
		return fmt.Errorf("tree path parks in a %T at cursor %d, where it cannot wait", f.p, f.i)
	case src != int(r.waiting.src) || tag != int(r.waiting.tag):
		return fmt.Errorf("tree path leads to a receive from (%d, %d) but the record waits for (%d, %d)",
			src, tag, r.waiting.src, r.waiting.tag)
	}
	return nil
}

// recMsgMin is the minimum encoded size of one buffered message:
// From, Tag, Seq, VTime, and the data length prefix.
const recMsgMin = 4*8 + 4

// pupMsgs moves one buffered-message list (To is implied by the
// record's rank), bounding a claimed count by the bytes remaining —
// division, not n*recMsgMin, so a hostile count cannot overflow past it.
// A sender crosses as its rank: the job's entity base is the network's
// to allocate, and a job restored onto another machine has its own.
// The transport stamps stay behind, since they are the placement's,
// not the rank's: Hops and SendTime are the route's history, and
// Arrival is the sending PE's clock plus latency. recvLocked holds the
// consuming PE's clock to Arrival, which moves no rank's virtual time
// (VTime does); a carried message, already arrived, holds it to
// nothing.
func (e *eventEngine) pupMsgs(p *pup.PUPer, msgs *[]*comm.Message, rank int) error {
	n := len(*msgs)
	if err := p.Int(&n); err != nil {
		return err
	}
	if p.IsUnpacking() {
		if n < 0 || n > p.Remaining()/recMsgMin {
			return fmt.Errorf("record claims %d buffered messages with %d bytes remaining", n, p.Remaining())
		}
		*msgs = make([]*comm.Message, n)
		for i := range *msgs {
			(*msgs)[i] = comm.NewMessage()
			(*msgs)[i].To = e.idOf(rank)
		}
	}
	for _, m := range *msgs {
		from := e.rankIdx(m.From)
		if err := pupFields(p, &from, &m.Tag, &m.Seq, &m.VTime, &m.Data); err != nil {
			return err
		}
		if from < 0 || from >= e.job.size {
			return fmt.Errorf("record holds a message from rank %d of %d", from, e.job.size)
		}
		m.From = e.idOf(from)
	}
	return nil
}

// pupSeqMap moves a per-peer stream map sorted by rank, so identical
// state always packs identically. Unpacking bounds the claimed count
// by the bytes remaining and wants the ranks increasing and in the job.
func (e *eventEngine) pupSeqMap(p *pup.PUPer, mp *map[int]uint64) error {
	var keys []int
	for k := range *mp {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	n := len(keys)
	if err := p.Int(&n); err != nil || n == 0 {
		return err
	}
	if p.IsUnpacking() {
		if n < 0 || n > p.Remaining()/16 {
			return fmt.Errorf("record claims %d stream entries with %d bytes remaining", n, p.Remaining())
		}
		*mp, keys = make(map[int]uint64, n), make([]int, n)
	}
	for i, k := range keys {
		v := (*mp)[k]
		if err := pupFields(p, &k, &v); err != nil {
			return err
		}
		if p.IsUnpacking() {
			if k < 0 || k >= e.job.size || i > 0 && k <= keys[i-1] {
				return fmt.Errorf("record stream entry for rank %d of %d is out of order", k, e.job.size)
			}
			keys[i], (*mp)[k] = k, v
		}
	}
	return nil
}
