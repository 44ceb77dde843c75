package ampi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"migflow/internal/comm"
)

// spec is the reference semantics of a Proc program of point-to-point
// statements and blocking collectives: one goroutine interprets every
// rank's tree in turn, with its own resume points, one FIFO per
// (src, dst) and DESIGN.md's virtual-time rules written out rather than
// taken from PC: Work(ns) adds ns; a send adds MsgOverheadNs, then
// stamps the message with the sender's time; a receive raises the time
// to the stamp plus the postal cost Alpha + BetaPerByte·len if that is
// later, then adds MsgOverheadNs. Statements run against the PCs of a
// job that never starts, on one PE, whose backend the spec is: a send
// only leaves a message in the PE's inbox, and the spec collects the
// inbox before a Work or a receive moves a clock. A receive takes the
// oldest message of its source's FIFO whose tag matches; AnyTag matches
// every tag ≥ 0. A collective is its textbook send/receive pattern
// (textbook) over the rank's family in the job's topology, each tree
// edge's send first charged its torus hops. AnySource is not in this
// slice: arrival order across senders is not a function of the program.
type spec struct {
	backend // the rest of the interface is never called
	t       *testing.T
	job     *Job
	ovh     float64
	vt      []float64
	queues  map[[2]int][]*comm.Message // (src, dst) → sends in order
	sent    uint64
	colls   map[specSite]*specColl
}

// specSite is one rank's run of one collective site.
type specSite struct {
	rank int
	site *collSite
}

// specColl is the spec's state for one rank at one collective: the
// site's accumulator (read and written by the site's begin and end,
// and by absorb), its textbook pattern and the cursor into it.
type specColl struct {
	st   collState
	acts []specAct
	next int
}

// specAct is one send to or receive from peer under tag.
type specAct struct {
	send, down bool
	peer, tag  int
}

// textbook is a collective's send/receive pattern for one rank with
// parent (-1 at the root) and children, written out per kind: an up
// phase receives from each child in order, combining, and sends to the
// parent; a down phase receives from the parent and sends to each child
// in order. Barrier and Allreduce go up then down, Reduce and Gather
// only up, Bcast only down.
func textbook(t *testing.T, kind collKind, parent int, children []int) []specAct {
	var acts []specAct
	up := func(tag int) {
		for _, c := range children {
			acts = append(acts, specAct{peer: c, tag: tag})
		}
		if parent >= 0 {
			acts = append(acts, specAct{send: true, peer: parent, tag: tag})
		}
	}
	down := func(tag int) {
		if parent >= 0 {
			acts = append(acts, specAct{down: true, peer: parent, tag: tag})
		}
		for _, c := range children {
			acts = append(acts, specAct{send: true, down: true, peer: c, tag: tag})
		}
	}
	switch kind {
	case collBarrier:
		up(tagBarrier)
		down(tagBarrierRelease)
	case collAllreduce:
		up(tagReduce)
		down(tagReduceResult)
	case collReduce:
		up(tagReduceRoot)
	case collBcast:
		down(tagBcast)
	case collGather:
		up(tagGather)
	default:
		t.Fatalf("spec: collective kind %d is not in this slice", kind)
	}
	return acts
}

// runSpec interprets prog on size ranks under opts (its collective
// topology and MsgOverheadNs) and returns each rank's final virtual
// time and the number of messages sent.
func runSpec(t *testing.T, size int, opts Options, prog Proc) ([]float64, uint64) {
	opts.Mode = ModeEvent
	j, err := NewProgram(newMachine(t, 1, nil), size, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	s := &spec{t: t, job: j, ovh: opts.MsgOverheadNs, vt: make([]float64, size),
		queues: map[[2]int][]*comm.Message{}, colls: map[specSite]*specColl{}}
	j.be = s
	pcs, stacks := make([]PC, size), make([][]frame, size)
	for r := range pcs {
		pcs[r], stacks[r] = PC{job: j, rank: int32(r)}, []frame{{p: prog}}
	}
	for progress := true; progress; {
		progress = false
		for r := range stacks {
			progress = s.run(&pcs[r], &stacks[r]) || progress
		}
	}
	for r := range stacks {
		if len(stacks[r]) > 0 {
			t.Fatalf("spec: rank %d deadlocked in %T", r, stacks[r][len(stacks[r])-1].p)
		}
	}
	s.collect()
	return s.vt, s.sent
}

// collect queues the messages sent since the last collect, charging
// each its send overhead — and a collective's tree edge its torus hops
// first — on the sender's clock and stamping it.
func (s *spec) collect() {
	for m := s.job.m.Network().Endpoint(0).Poll(); m != nil; m = s.job.m.Network().Endpoint(0).Poll() {
		from := s.job.senderOf(m.From)
		k := [2]int{from, s.job.senderOf(m.To)}
		if m.Tag < 0 {
			s.vt[from] += float64(s.job.edgeHops(from, k[1])) * s.job.opts.Topo.HopNs
		}
		s.vt[from] += s.ovh
		m.VTime = s.vt[from]
		s.queues[k] = append(s.queues[k], m)
		s.sent++
	}
}

func (s *spec) work(pc *PC, ns float64) {
	s.collect()
	s.vt[pc.rank] += ns
}

func (s *spec) pe(*PC) int           { return 0 }
func (s *spec) usestack(*PC, uint64) {}

// take receives rank r's oldest message from src tagged tag (any tag
// ≥ 0 for AnyTag), if it has been sent, and applies the receive rule.
func (s *spec) take(r, src, tag int) ([]byte, bool) {
	s.collect()
	k := [2]int{src, r}
	i := slices.IndexFunc(s.queues[k], func(m *comm.Message) bool {
		return m.Tag == tag || tag == AnyTag && m.Tag >= 0
	})
	if i < 0 {
		return nil, false
	}
	m, lat := s.queues[k][i], s.job.m.Network().Latency()
	s.queues[k] = slices.Delete(s.queues[k], i, i+1)
	s.vt[r] = max(s.vt[r], m.VTime+(lat.Alpha+lat.BetaPerByte*float64(len(m.Data)))) + s.ovh
	return m.Data, true
}

// run interprets one rank from its resume point until it blocks or
// finishes, and reports whether it got anywhere.
func (s *spec) run(pc *PC, st *[]frame) (progress bool) {
	for r := pc.Rank(); len(*st) > 0; progress = true {
		f := &(*st)[len(*st)-1]
		var child Proc
		switch p := f.p.(type) {
		case doProc:
			p.fn(pc)
		case vtProbe:
			s.collect()
			p.mark(r, s.vt[r])
		case seqProc:
			if f.i < len(p.ps) {
				child = p.ps[f.i]
			}
		case forProc:
			if f.i < p.n {
				child = p.body(f.i)
			}
		case recvProc:
			data, ok := s.take(r, p.source(pc), p.tag)
			if !ok {
				return progress
			}
			if p.then != nil {
				p.then(pc, data, p.source(pc))
			}
		case recvEachProc:
			for srcs := p.srcs(pc); f.i < len(srcs); f.i++ {
				data, ok := s.take(r, srcs[f.i], p.tag)
				if !ok {
					return progress
				}
				if progress = true; p.then != nil {
					p.then(pc, data, srcs[f.i])
				}
			}
		case collStartProc:
			c := &specColl{}
			c.st.parent, c.st.children = collFamily(nil, p.site.kind, r, pc.Size(), &s.job.opts, p.site.root)
			c.acts = textbook(s.t, p.site.kind, c.st.parent, c.st.children)
			s.colls[specSite{r, p.site}] = c
			if p.site.begin != nil {
				p.site.begin(pc, &c.st)
			}
			for ; c.next < len(c.acts) && c.acts[c.next].send; c.next++ {
				s.job.send(pc, c.acts[c.next].peer, c.acts[c.next].tag, s.payload(p.site, c))
			}
		case collWaitProc:
			c := s.colls[specSite{r, p.site}]
			for ; c.next < len(c.acts); c.next++ {
				a := c.acts[c.next]
				if a.send {
					s.job.send(pc, a.peer, a.tag, s.payload(p.site, c))
					continue
				}
				data, ok := s.take(r, a.peer, a.tag)
				if !ok {
					return progress
				}
				progress = true
				s.absorb(p.site, c, a, data)
			}
			if p.site.end != nil {
				p.site.end(pc, &c.st)
			}
		case waitallProc:
			if f.reqs == nil {
				f.reqs = p.reqs(pc)
			}
			for ; f.i < len(f.reqs); f.i++ {
				if q := f.reqs[f.i]; q != nil && !q.done && q.isRecv {
					data, ok := s.take(r, q.src, q.tag)
					if !ok {
						return progress
					}
					progress, q.done, q.Data, q.From = true, true, data, q.src
				}
			}
		default:
			s.t.Fatalf("spec: %T is not in this slice", p)
		}
		if child != nil {
			f.i++
			*st = append(*st, frame{p: child})
		} else {
			*st = (*st)[:len(*st)-1]
		}
	}
	return progress
}

// payload is what a collective's next send carries: a reduction's
// running value, the broadcast data, the gathered subtree packed, or
// nothing (a barrier).
func (s *spec) payload(site *collSite, c *specColl) []byte {
	switch site.kind {
	case collAllreduce, collReduce:
		return f64bytes(c.st.val)
	case collBcast:
		return c.st.data
	case collGather:
		return packGather(c.st.entries)
	}
	return nil
}

// absorb folds a collective's received payload: an up-phase value is
// combined into the running one (received value second), a down-phase
// value replaces it; broadcast data is kept, a gathered subtree
// appended.
func (s *spec) absorb(site *collSite, c *specColl, a specAct, data []byte) {
	switch site.kind {
	case collAllreduce, collReduce:
		if a.down {
			c.st.val = f64(data)
		} else {
			c.st.val = site.combine(c.st.val, f64(data))
		}
	case collBcast:
		c.st.data = data
	case collGather:
		sub, err := unpackGather(data, s.job.size)
		if err != nil {
			s.t.Fatal(err)
		}
		c.st.entries = append(c.st.entries, sub...)
	}
}

// specMix generates a random program from seed, a Seq
// of phases: shifted sends taken by RecvFrom in a random order (shift 0
// is a self-send); a star, where rank a sends to every rank, each
// answers in a Sendrecv (a plain Recv from a) and a takes the answers
// in one RecvEach; an Isend/Irecv exchange with both neighbours, whose
// Waitall also holds a completed and a nil request; rank-dependent
// Work; a Barrier, a Reduce or Allreduce (sum, max or min of every
// rank's state), a Bcast of the root's payload or a Gather of every
// rank's at a random root. In about half the phases every receive names its source but
// takes AnyTag, so it matches the oldest message from that source.
// Payloads are 0 to 41 bytes: empty, both sides of comm.InlineBytes
// (16 and 17: carried inside a pooled message, or lent), and longer.
// The first 8 bytes of a payload are the sender's state and each later
// byte repeats one of them under a mask fixed by its position, so a
// receive checks every byte: every route shares Message.SetData, so
// only the payload itself can show one cut short or overwritten in
// flight. Every rank folds what it receives into its state and writes
// it to sink at the end.
func specMix(seed int64, size int, sink []float64) Proc {
	rng := rand.New(rand.NewSource(seed))
	st := func(pc *PC) *mixState { return pc.Local.(*mixState) }
	mask := func(i int) byte { return byte(i/8) * 0x5b }
	payload := func(pc *PC, n int) []byte {
		x, b := f64bytes(st(pc).x), make([]byte, n)
		for i := range b {
			b[i] = x[i%8] ^ mask(i)
		}
		return b
	}
	fold := func(pc *PC, data []byte, from int) {
		for i := 8; i < len(data); i++ {
			if data[i] != data[i%8]^mask(i) {
				panic(fmt.Sprintf("specMix: rank %d got a %d-byte payload from rank %d whose byte %d is %#x, want %#x",
					pc.Rank(), len(data), from, i, data[i], data[i%8]^mask(i)))
			}
		}
		if st(pc).x = st(pc).x*0.5 + float64(len(data)+from); len(data) >= 8 {
			st(pc).x += f64(data)
		}
	}
	shift := func(pc *PC, d int) int { return ((pc.Rank()+d)%size + size) % size }
	ps := []Proc{Do(func(pc *PC) { pc.Local = &mixState{x: float64(pc.Rank())} })}
	for phases := 2 + rng.Intn(8); len(ps) <= phases; {
		tag, n, wild := rng.Intn(3), []int{0, 8, 16, 17, 33}[rng.Intn(5)], rng.Intn(2) == 0
		recvTag := func(t int) int {
			if wild {
				return AnyTag
			}
			return t
		}
		switch rng.Intn(5) {
		case 0:
			ds := rng.Perm(size)[:1+rng.Intn(min(size, 3))]
			ps = append(ps, Do(func(pc *PC) {
				for _, d := range ds {
					pc.Send(shift(pc, d), tag, payload(pc, n))
				}
			}))
			for _, k := range rng.Perm(len(ds)) {
				ps = append(ps, RecvFrom(func(pc *PC) int { return shift(pc, -ds[k]) }, recvTag(tag), fold))
			}
		case 1:
			a, srcs := rng.Intn(size), make([][]int, size)
			srcs[a] = rng.Perm(size)
			ps = append(ps, Do(func(pc *PC) {
				for r := 0; r < size && pc.Rank() == a; r++ {
					pc.Send(r, tag, payload(pc, n+r))
				}
			}), Sendrecv(a, tag+3, func(pc *PC) []byte { return payload(pc, n) }, a, recvTag(tag), fold),
				RecvEach(func(pc *PC) []int { return srcs[pc.Rank()] }, recvTag(tag+3), fold))
		case 2:
			ps = append(ps, Do(func(pc *PC) {
				sent := pc.Isend(shift(pc, 1), tag, payload(pc, n))
				pc.Isend(shift(pc, -1), tag+3, payload(pc, n+1))
				st(pc).reqs = []*Req{pc.Irecv(shift(pc, 1), recvTag(tag+3)), nil, sent, pc.Irecv(shift(pc, -1), recvTag(tag))}
			}), Waitall(func(pc *PC) []*Req { return st(pc).reqs }), Do(func(pc *PC) {
				for _, q := range []*Req{st(pc).reqs[0], st(pc).reqs[3]} {
					fold(pc, q.Data, q.From)
				}
			}))
		case 3:
			ns := float64(rng.Intn(3000))
			ps = append(ps, Do(func(pc *PC) { pc.Work(ns * float64(pc.Rank()%3+1)) }))
		default:
			root, op := rng.Intn(size), []string{"sum", "max", "min"}[rng.Intn(3)]
			val := func(pc *PC) float64 { return st(pc).x }
			result := func(from int) func(*PC, float64) {
				return func(pc *PC, v float64) { fold(pc, f64bytes(v), from) }
			}
			switch rng.Intn(5) {
			case 0:
				ps = append(ps, Barrier())
			case 1:
				ps = append(ps, Reduce(root, op, val, result(root)))
			case 2:
				ps = append(ps, Allreduce(op, val, result(0)))
			case 3:
				ps = append(ps, Bcast(root, func(pc *PC) []byte { return payload(pc, n) }, func(pc *PC, d []byte) { fold(pc, d, root) }))
			default:
				ps = append(ps, Gather(root, func(pc *PC) []byte { return payload(pc, n) }, func(pc *PC, parts [][]byte) {
					for r, d := range parts {
						fold(pc, d, r)
					}
				}))
			}
		}
	}
	return Seq(append(ps, Do(func(pc *PC) { sink[pc.Rank()] = st(pc).x }))...)
}

// TestSpecOracle holds both backends on 1, 2 and 4 PEs under Run, and
// on 2 and 4 PEs under RunParallel, bit for bit to the spec: every run
// ends with a nil Err, and every rank's virtual time after each
// statement (vtdiff names the first that differs), its output and the
// message count match, for four Jacobi rings and 200 random programs,
// every other one with MsgOverheadNs, their collectives over the k-ary
// tree (arity 2 to 4), the flat star and the topology tree with hop
// costs in turn.
func TestSpecOracle(t *testing.T) {
	for i := -4; i < 200; i++ {
		name, size, ovh := fmt.Sprintf("mix/seed%d", i), 1+i*7%9, float64(i%2)*175
		coll := []Options{
			{Collectives: CollTree, TreeArity: 2 + i%3},
			{Collectives: CollFlat},
			{Collectives: CollTopoTree, TreeArity: 2, Topo: Topology{Nodes: 3, GroupSize: 2, HopNs: 40}, BlockPlacement: i%2 == 0},
		}[(i+4)%3]
		prog := func(sink []float64) Proc { return specMix(int64(i), size, sink) }
		if i < 0 { // Figure 1's ring: blocking or overlapped halos, with and without overhead
			cfg := JacobiConfig{Ranks: 6, Iters: 10, WorkNs: 1000, WorkSkew: 0.5, Overlap: i%2 != 0,
				HaloBytes: 8 + 16*(i/-3), MsgOverheadNs: 300 * float64(i/-3)}
			name, size, ovh = fmt.Sprintf("jacobi/overlap=%v/ovh%g", cfg.Overlap, cfg.MsgOverheadNs), cfg.Ranks, cfg.MsgOverheadNs
			prog = func(sink []float64) Proc {
				cfg.Observe = func(r int, c JacobiCell) { sink[r] = c.X }
				return JacobiProgram(cfg)
			}
		}
		coll.MsgOverheadNs = ovh
		want := make([]float64, size)
		specProg, wantTrace := instrument(prog(want), size, nil)
		wantVT, wantSent := runSpec(t, size, coll, specProg)
		for _, run := range []struct {
			parallel bool
			pes      []int
		}{{false, []int{1, 2, 4}}, {true, []int{2, 4}}} {
			for _, mode := range []string{ModeEvent, ModeULT} {
				for _, pes := range run.pes {
					got := make([]float64, size)
					opts := coll
					opts.Mode, opts.StackSize = mode, 32<<10
					m := newMachine(t, pes, nil)
					p, trace := instrument(prog(got), size, nil)
					j, err := NewProgram(m, size, opts, p)
					if err != nil {
						t.Fatal(err)
					}
					drive(t, j, run.parallel)
					at := fmt.Sprintf("%s %s/%dPE/%s", name, mode, pes, driverName(run.parallel))
					if err := j.Err(); err != nil || !j.Done() {
						t.Fatalf("%s: ended with %v (done %v)", at, err, j.Done())
					}
					if sent := m.Network().Snapshot().Sent; sent != wantSent {
						t.Fatalf("%s: %d messages, spec %d", at, sent, wantSent)
					}
					if d := vtdiff(wantTrace, trace); d != "" {
						t.Fatalf("%s: %s", at, d)
					}
					for r, vt := range wantVT {
						if math.Float64bits(j.VT(r)) != math.Float64bits(vt) || math.Float64bits(got[r]) != math.Float64bits(want[r]) {
							t.Fatalf("%s: rank %d VT %v output %v, spec %v and %v", at, r, j.VT(r), got[r], vt, want[r])
						}
					}
				}
			}
		}
	}
}
