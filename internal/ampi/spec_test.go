package ampi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"migflow/internal/comm"
)

// spec is the reference semantics of a point-to-point Proc program: one
// goroutine interprets every rank's tree in turn, with its own resume
// points, one FIFO per (src, dst) and DESIGN.md's virtual-time
// rules written out rather than taken from PC: Work(ns) adds ns; a send
// adds MsgOverheadNs, then stamps the message with the sender's time; a
// receive raises the time to the stamp plus the postal cost Alpha +
// BetaPerByte·len if that is later, then adds MsgOverheadNs. Statements
// run against the PCs of a job that never starts, on one PE, whose
// backend the spec is: a send only leaves a message in the PE's inbox,
// and the spec collects the inbox before a Work or a receive moves a
// clock. A receive takes the oldest message of its source's FIFO whose
// tag matches; AnyTag matches every tag ≥ 0. AnySource and collectives
// are not in this slice: arrival order across senders is not a function
// of the program.
type spec struct {
	backend // the rest of the interface is never called
	t       *testing.T
	job     *Job
	ovh     float64
	vt      []float64
	queues  map[[2]int][]*comm.Message // (src, dst) → sends in order
	sent    uint64
}

// runSpec interprets prog on size ranks and returns each rank's final
// virtual time and the number of messages sent.
func runSpec(t *testing.T, size int, ovh float64, prog Proc) ([]float64, uint64) {
	j, err := NewProgram(newMachine(t, 1, nil), size, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	s := &spec{t: t, job: j, ovh: ovh, vt: make([]float64, size), queues: map[[2]int][]*comm.Message{}}
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
// each its send overhead on the sender's clock and stamping it.
func (s *spec) collect() {
	for m := s.job.m.Network().Endpoint(0).Poll(); m != nil; m = s.job.m.Network().Endpoint(0).Poll() {
		from := s.job.senderOf(m.From)
		k := [2]int{from, s.job.senderOf(m.To)}
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
			s.t.Fatalf("spec: %T is not in the point-to-point slice", p)
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

// specMix generates a random point-to-point program from seed, a Seq
// of phases: shifted sends taken by RecvFrom in a random order (shift 0
// is a self-send); a star, where rank a sends to every rank, each
// answers in a Sendrecv (a plain Recv from a) and a takes the answers
// in one RecvEach; an Isend/Irecv exchange with both neighbours, whose
// Waitall also holds a completed and a nil request; rank-dependent
// Work. In about half the phases every receive names its source but
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
		switch rng.Intn(4) {
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
		default:
			ns := float64(rng.Intn(3000))
			ps = append(ps, Do(func(pc *PC) { pc.Work(ns * float64(pc.Rank()%3+1)) }))
		}
	}
	return Seq(append(ps, Do(func(pc *PC) { sink[pc.Rank()] = st(pc).x }))...)
}

// TestSpecOracle holds both backends on 1, 2 and 4 PEs bit for bit to
// the spec: every rank's final virtual time and output and the message
// count, for four Jacobi rings and 100 random point-to-point programs,
// every other one with MsgOverheadNs.
func TestSpecOracle(t *testing.T) {
	for i := -4; i < 100; i++ {
		name, size, ovh := fmt.Sprintf("mix/seed%d", i), 1+i*7%9, float64(i%2)*175
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
		want := make([]float64, size)
		wantVT, wantSent := runSpec(t, size, ovh, prog(want))
		for _, mode := range []string{ModeEvent, ModeULT} {
			for _, pes := range []int{1, 2, 4} {
				got := make([]float64, size)
				j, m := runProg(t, pes, size, Options{Mode: mode, MsgOverheadNs: ovh, StackSize: 32 << 10}, prog(got))
				if sent := m.Network().Snapshot().Sent; sent != wantSent {
					t.Fatalf("%s %s/%dPE: %d messages, spec %d", name, mode, pes, sent, wantSent)
				}
				for r, vt := range wantVT {
					if math.Float64bits(j.VT(r)) != math.Float64bits(vt) || math.Float64bits(got[r]) != math.Float64bits(want[r]) {
						t.Fatalf("%s %s/%dPE: rank %d VT %v output %v, spec %v and %v", name, mode, pes, r, j.VT(r), got[r], vt, want[r])
					}
				}
			}
		}
	}
}
