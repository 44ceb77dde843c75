package ampi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"migflow/internal/comm"
	"migflow/internal/loadbalance"
	"migflow/internal/pup"
)

// mixState is the per-rank Local state the randomized mix and the
// nonblocking tests use (jacobiState has no request slots).
type mixState struct {
	x    float64
	reqs []*Req
}

// mixLocalPUP is mixState's Options.LocalPUP: the value, then the
// request list, each entry a presence flag and the request through
// Req.Pup, so a Waitall reading it finds the same requests, nil entries
// included, after a move.
func mixLocalPUP(p *pup.PUPer, local any) (any, error) {
	st, _ := local.(*mixState)
	if st == nil {
		st = &mixState{}
	}
	n := len(st.reqs)
	if err := pupFields(p, &st.x, &n); err != nil {
		return nil, err
	}
	if p.IsUnpacking() {
		if n < 0 || n > p.Remaining() {
			return nil, fmt.Errorf("mixState claims %d requests", n)
		}
		st.reqs = make([]*Req, n)
	}
	for i, q := range st.reqs {
		has := q != nil
		if err := p.Bool(&has); err != nil {
			return nil, err
		}
		if !has {
			continue
		}
		if q == nil {
			q = &Req{}
			st.reqs[i] = q
		}
		if err := q.Pup(p); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// TestModeValidation: unknown Mode strings are rejected everywhere,
// the zero value selects ULT, and the event-mode restrictions hold.
func TestModeValidation(t *testing.T) {
	m := newMachine(t, 2, nil)
	if _, err := NewJob(m, 2, Options{Mode: "fibers"}, func(*Rank) {}); err == nil {
		t.Fatal("NewJob accepted Mode \"fibers\"")
	}
	if _, err := NewProgram(m, 2, Options{Mode: "EVENT"}, Do(func(*PC) {})); err == nil {
		t.Fatal("NewProgram accepted Mode \"EVENT\" (modes are case-sensitive)")
	}
	if _, err := NewJob(m, 2, Options{Mode: ModeEvent}, func(*Rank) {}); err == nil {
		t.Fatal("NewJob accepted event mode for a raw func body")
	}
	j, err := NewJob(m, 2, Options{}, func(*Rank) {})
	if err != nil {
		t.Fatalf("zero-value Mode: %v", err)
	}
	if j.Mode() != ModeULT {
		t.Fatalf("zero-value Mode normalized to %q, want %q", j.Mode(), ModeULT)
	}
}

// runJacobiOn runs a Jacobi program on a fresh machine and returns
// per-rank VTs and the network message count.
func runJacobiOn(t *testing.T, cfg JacobiConfig, pes int, mode string) ([]float64, uint64) {
	t.Helper()
	m := newMachine(t, pes, nil)
	cfg.Mode = mode
	job, err := NewProgram(m, cfg.Ranks, Options{
		Mode:           mode,
		BlockPlacement: cfg.BlockPlacement,
		MsgOverheadNs:  cfg.MsgOverheadNs,
		StackSize:      32 << 10,
	}, JacobiProgram(cfg))
	if err != nil {
		t.Fatalf("NewProgram(%s, %d ranks): %v", mode, cfg.Ranks, err)
	}
	job.Run()
	if !job.Done() {
		t.Fatalf("%s job with %d ranks on %d PEs did not complete", mode, cfg.Ranks, pes)
	}
	vts := make([]float64, cfg.Ranks)
	for r := range vts {
		vts[r] = job.VT(r)
	}
	sent := m.Network().Snapshot().Sent
	return vts, sent
}

// TestJacobiModesAgree is the smoke version of the equivalence
// property: one config, both modes, several PE counts, bit-identical
// VT and equal message counts.
func TestJacobiModesAgree(t *testing.T) {
	cfg := JacobiConfig{Ranks: 12, Iters: 5, ReduceEvery: 2, MsgOverheadNs: 250}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	ref, refSent := runJacobiOn(t, cfg, 1, ModeULT)
	for _, pes := range []int{1, 2, 3, 4} {
		for _, mode := range []string{ModeULT, ModeEvent} {
			vts, sent := runJacobiOn(t, cfg, pes, mode)
			if sent != refSent {
				t.Fatalf("%s/%dPE sent %d messages, want %d", mode, pes, sent, refSent)
			}
			for r := range vts {
				if vts[r] != ref[r] {
					t.Fatalf("%s/%dPE rank %d VT %v, want %v", mode, pes, r, vts[r], ref[r])
				}
			}
		}
	}
}

// buildMix deterministically generates a random workload program
// (from seed): a sequence of halo exchanges, collectives, nonblocking
// pairs, and local work. Every rank folds everything it observes into
// an accumulator and writes it to sink[rank] at the end, so two runs
// agree iff every received value and every reduction agreed.
// gates, when non-nil, inserts a Migrate LB gate after each phase
// index present in the map (the migration-equivalence property test's
// randomized migration schedule).
func buildMix(seed int64, size, phases int, sink []float64, gates map[int]loadbalance.Strategy) Proc {
	rng := rand.New(rand.NewSource(seed))
	acc := func(pc *PC, v float64) {
		st := pc.Local.(*mixState)
		st.x = st.x*0.5 + v + float64(pc.Rank())*1e-3
	}
	var ps []Proc
	ps = append(ps, Do(func(pc *PC) {
		pc.Local = &mixState{x: float64(pc.Rank() + 1)}
	}))
	for p := 0; p < phases; p++ {
		switch rng.Intn(11) {
		case 0: // ring exchange via Sendrecv
			tagA := rng.Intn(4)
			ps = append(ps, Seq(
				Do(func(pc *PC) { pc.Send((pc.Rank()+1)%pc.Size(), tagA, f64bytes(pc.Local.(*mixState).x)) }),
				RecvFrom(func(pc *PC) int { return (pc.Rank() - 1 + pc.Size()) % pc.Size() }, tagA,
					func(pc *PC, data []byte, from int) { acc(pc, f64(data)+float64(from)) })))
		case 1:
			ps = append(ps, Barrier())
		case 2:
			op := []string{"sum", "max", "min"}[rng.Intn(3)]
			ps = append(ps, Allreduce(op,
				func(pc *PC) float64 { return pc.Local.(*mixState).x },
				func(pc *PC, v float64) { acc(pc, v) }))
		case 3:
			root := rng.Intn(size)
			ps = append(ps, Bcast(root,
				func(pc *PC) []byte { return f64bytes(pc.Local.(*mixState).x * 2) },
				func(pc *PC, data []byte) { acc(pc, f64(data)) }))
		case 4:
			root := rng.Intn(size)
			ps = append(ps, Gather(root,
				func(pc *PC) []byte { return f64bytes(pc.Local.(*mixState).x) },
				func(pc *PC, parts [][]byte) {
					s := 0.0
					for _, p := range parts {
						s += f64(p)
					}
					acc(pc, s)
				}))
		case 5:
			root := rng.Intn(size)
			ps = append(ps, Scatter(root,
				func(pc *PC) [][]byte {
					chunks := make([][]byte, pc.Size())
					for i := range chunks {
						chunks[i] = f64bytes(pc.Local.(*mixState).x + float64(i))
					}
					return chunks
				},
				func(pc *PC, data []byte) { acc(pc, f64(data)) }))
		case 6:
			root := rng.Intn(size)
			op := []string{"sum", "max"}[rng.Intn(2)]
			ps = append(ps, Reduce(root, op,
				func(pc *PC) float64 { return pc.Local.(*mixState).x },
				func(pc *PC, v float64) { acc(pc, v) }))
		case 7: // nonblocking pair exchange + work on a live stack frame
			work := float64(rng.Intn(5000))
			live := uint64(rng.Intn(4)) * 512 // ≤ 8 phases × 1.5 KiB fits every caller's stack
			tag := 9
			ps = append(ps, Seq(
				Do(func(pc *PC) {
					st := pc.Local.(*mixState)
					peer := pc.Rank() ^ 1
					if peer >= pc.Size() {
						peer = pc.Rank()
					}
					// ULT ranks carry the frame through every later
					// gate; event ranks keep nothing. Neither may move vt.
					pc.UseStack(live)
					pc.Work(work)
					pc.Isend(peer, tag, f64bytes(st.x))
					st.reqs = []*Req{pc.Irecv(peer, tag)}
				}),
				Waitall(func(pc *PC) []*Req { return pc.Local.(*mixState).reqs }),
				Do(func(pc *PC) {
					st := pc.Local.(*mixState)
					if !st.reqs[0].Done() {
						panic("Waitall completed with its receive still pending")
					}
					acc(pc, f64(st.reqs[0].Data)+float64(st.reqs[0].From))
					st.reqs = nil
				}),
			))
		case 8:
			ps = append(ps, Alltoall(
				func(pc *PC) [][]byte {
					chunks := make([][]byte, pc.Size())
					for i := range chunks {
						chunks[i] = f64bytes(pc.Local.(*mixState).x + float64(i))
					}
					return chunks
				},
				func(pc *PC, parts [][]byte) {
					s := 0.0
					for from, p := range parts {
						s += f64(p) * float64(from+1)
					}
					acc(pc, s)
				}))
		case 9: // ring exchange over a static tree: the neighbour is a RecvFrom operand
			tag := rng.Intn(4)
			ps = append(ps,
				Do(func(pc *PC) { pc.Send((pc.Rank()+1)%pc.Size(), tag, f64bytes(pc.Local.(*mixState).x)) }),
				RecvFrom(func(pc *PC) int { return (pc.Rank() - 1 + pc.Size()) % pc.Size() }, tag,
					func(pc *PC, data []byte, from int) { acc(pc, f64(data)+float64(from)) }))
		case 10: // multi-source intake as one RecvEach, one source listed twice
			tag := 4 + rng.Intn(4)
			hops := []int{1, 1 + rng.Intn(3), 1} // rank r sends to r+hops[k], in this order
			srcs := make([][]int, size)
			for r := range srcs {
				for _, h := range hops {
					srcs[(r+h)%size] = append(srcs[(r+h)%size], r)
				}
			}
			for r := range srcs {
				sort.Ints(srcs[r])
			}
			ps = append(ps,
				Do(func(pc *PC) {
					for k, h := range hops {
						pc.Send((pc.Rank()+h)%pc.Size(), tag, f64bytes(pc.Local.(*mixState).x+float64(k)))
					}
				}),
				RecvEach(func(pc *PC) []int { return srcs[pc.Rank()] }, tag,
					func(pc *PC, data []byte, from int) { acc(pc, f64(data)*float64(from+1)) }))
		}
		if s, ok := gates[p]; ok {
			ps = append(ps, Migrate(s))
		}
	}
	ps = append(ps, Do(func(pc *PC) {
		sink[pc.Rank()] = pc.Local.(*mixState).x
	}))
	return Seq(ps...)
}

// TestCrossBackendEquivalence: ≥10 randomized trials over size, PE
// count, and workload mix. For each trial the ULT reference run and
// event runs on two different PE counts must produce bit-identical
// per-rank VT, bit-identical program outputs, and equal network
// message counts — the flow mechanism must be invisible to the
// simulated program.
func TestCrossBackendEquivalence(t *testing.T) {
	peChoices := []int{1, 2, 3, 4, 5, 8}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 13))
			size := 1 + rng.Intn(40)
			phases := 3 + rng.Intn(6)
			seed := rng.Int63()
			opts := Options{
				TreeArity:      1 + rng.Intn(4),
				MsgOverheadNs:  float64(rng.Intn(3)) * 175,
				BlockPlacement: rng.Intn(2) == 0,
				StackSize:      32 << 10,
			}
			if rng.Intn(3) == 0 {
				opts.Collectives = CollFlat
			}
			type result struct {
				vts, out []float64
				sent     uint64
			}
			run := func(mode string, pes int) result {
				m := newMachine(t, pes, nil)
				sink := make([]float64, size)
				o := opts
				o.Mode = mode
				job, err := NewProgram(m, size, o, buildMix(seed, size, phases, sink, nil))
				if err != nil {
					t.Fatalf("NewProgram(%s): %v", mode, err)
				}
				job.Run()
				if !job.Done() {
					t.Fatalf("%s/%dPE: job did not complete (size %d)", mode, pes, size)
				}
				vts := make([]float64, size)
				for r := range vts {
					vts[r] = job.VT(r)
				}
				sent := m.Network().Snapshot().Sent
				return result{vts: vts, out: sink, sent: sent}
			}
			ref := run(ModeULT, peChoices[rng.Intn(len(peChoices))])
			for _, other := range []result{
				run(ModeEvent, peChoices[rng.Intn(len(peChoices))]),
				run(ModeEvent, peChoices[rng.Intn(len(peChoices))]),
				run(ModeULT, peChoices[rng.Intn(len(peChoices))]),
			} {
				if other.sent != ref.sent {
					t.Fatalf("message counts diverged: %d vs %d (size %d, phases %d)", other.sent, ref.sent, size, phases)
				}
				for r := 0; r < size; r++ {
					if math.Float64bits(other.vts[r]) != math.Float64bits(ref.vts[r]) {
						t.Fatalf("rank %d VT diverged: %v vs %v", r, other.vts[r], ref.vts[r])
					}
					if math.Float64bits(other.out[r]) != math.Float64bits(ref.out[r]) {
						t.Fatalf("rank %d output diverged: %v vs %v", r, other.out[r], ref.out[r])
					}
				}
			}
		})
	}
}

// TestInterpreterBackedgeAllocatesNothing pins what the deleted
// trampoline was for. A loop backedge is a cursor increment in a frame
// that already exists, so a million iterations over a pre-built
// statement allocate O(1) in total, in both modes (the closure-CPS
// interpreter built at least three closures per iteration); and
// nesting depth is frame-stack depth, never Go recursion, so a
// 10,000-deep Seq completes.
func TestInterpreterBackedgeAllocatesNothing(t *testing.T) {
	for _, mode := range []string{ModeULT, ModeEvent} {
		const iters = 1 << 20
		n := 0
		body := Do(func(*PC) { n++ })
		deep := Do(func(*PC) { n += iters })
		for i := 0; i < 10_000; i++ {
			deep = Seq(deep)
		}
		m := newMachine(t, 1, nil)
		job, err := NewProgram(m, 1, Options{Mode: mode, StackSize: 32 << 10},
			Seq(For(iters, func(int) Proc { return body }), deep))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job.Run()
		runtime.ReadMemStats(&after)
		if !job.Done() || n != 2*iters {
			t.Fatalf("%s: done=%v, body ran %d times, want %d", mode, job.Done(), n, 2*iters)
		}
		// The constant covers starting the rank and growing its frame
		// stack to 10,000 entries by doubling.
		allocs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d iterations, %d allocations", mode, iters, allocs)
		if allocs > 512 {
			t.Fatalf("%s: %d iterations allocated %d objects, want O(1)", mode, iters, allocs)
		}
	}
}

// pooledPair measures what steady state costs once the message pool is
// warm: a warm-up run as long as the long one, so the pool holds the
// most messages that are ever in flight at once, then a short and a
// long run, with the collector off so the pool keeps what the runs hand
// back. It returns the extra allocations and network sends of the long
// run over the short one. Without the warm-up the difference comes out
// negative: the long run reuses the messages the short one made.
func pooledPair(run func(iters int) (mallocs, msgs uint64), short, long int) (mallocs, msgs float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(long)
	m0, s0 := run(short)
	m1, s1 := run(long)
	return float64(m1) - float64(m0), float64(s1) - float64(s0)
}

// TestSteadyStateStepAllocations pins "a rank-step builds no program"
// and "a message is recycled". Once a rank has made its first pass (its
// Local, and its carves of the job's first-use blocks: frame stack,
// first mailbox array, collective run and tree children — what that
// costs is TestFirstPassAllocations') and the message pool is warm, a
// Jacobi step allocates nothing: its halos
// and reduction values ride inside pooled messages, and a ULT rank's
// receive parks on a match spec held by value. The difference between
// a 2- and a 10-iteration run stays within 0.1 allocations per
// rank-step (plus one per message where the pool drops what it is
// given: under the race detector and the msgpoison tag). A per-step
// Call, a rebuilt Recv, a per-execution collective closure or an
// unpooled message each cost at least one.
// The slot a rank occupies is pinned too, at 136 bytes: mu 8; pc 72
// (job 8, rank 4 and 4 of padding, vt 8, Local 16, colls 8 — the
// collective list is one pointer — and stack 24); mbox 24; got 8;
// busy 8; waiting 8 (two int32s); head 4; hasWait, done and moving 3,
// and 1 of padding. The backend is the job's, and a sharded run's
// stream state lives beside the store.
func TestSteadyStateStepAllocations(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 136 {
		t.Errorf("the slot is %d bytes, want 136: the per-rank slot changed size", got)
	}
	const ranks, short, long = 4096, 4, 12
	rows := []struct {
		mode    string
		overlap bool
	}{{ModeEvent, false}, {ModeEvent, true}, {ModeULT, false}}
	for _, row := range rows {
		run := func(iters int) (mallocs, msgs uint64) {
			m, job, err := NewJacobi(JacobiConfig{
				Ranks: ranks, Iters: iters, PEs: 4, Mode: row.mode,
				ReduceEvery: 2, Overlap: row.overlap, BlockPlacement: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			job.Run()
			runtime.ReadMemStats(&after)
			if !job.Done() {
				t.Fatalf("%+v: %d-iteration job did not complete", row, iters)
			}
			return after.Mallocs - before.Mallocs, m.Network().Snapshot().Sent
		}
		dm, ds := pooledPair(run, short, long)
		steps := float64(ranks * (long - short))
		perStep, bound := dm/steps, 0.1
		if lossyPool {
			bound += ds / steps
		}
		t.Logf("%+v: %.3f allocations per steady-state rank-step (%.2f messages)", row, perStep, ds/steps)
		if perStep > bound {
			t.Errorf("%+v: %.3f allocations per steady-state rank-step, want ≤ %.2f", row, perStep, bound)
		}
	}
}

// TestCollectiveSiteSteadyStateAllocations extends the pin to the two
// collectives with per-peer payloads: a loop over one prebuilt Alltoall
// site and one prebuilt Scatter site, on 64 event ranks with chunk
// tables built once, allocates per rank-iteration at most its messages
// plus one — the Alltoall's result slice, every other iteration. Their
// messages are not recycled: each received chunk is a payload the
// program keeps. A collective that rebuilt its statements per execution
// costs several allocations per peer.
func TestCollectiveSiteSteadyStateAllocations(t *testing.T) {
	const ranks, short, long = 64, 4, 20
	table := make([][][]byte, ranks)
	for r := range table {
		table[r] = make([][]byte, ranks)
		for i := range table[r] {
			table[r][i] = f64bytes(float64(r*ranks + i))
		}
	}
	val := func(pc *PC) [][]byte { return table[pc.Rank()] }
	sites := []Proc{Alltoall(val, func(*PC, [][]byte) {}), Scatter(5, val, func(*PC, []byte) {})}
	run := func(iters int) (mallocs, msgs uint64) {
		m := newMachine(t, 2, nil)
		job, err := NewProgram(m, ranks, Options{Mode: ModeEvent},
			For(iters, func(i int) Proc { return sites[i%2] }))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job.Run()
		runtime.ReadMemStats(&after)
		if !job.Done() {
			t.Fatalf("%d-iteration job did not complete", iters)
		}
		return after.Mallocs - before.Mallocs, m.Network().Snapshot().Sent
	}
	dm, ds := pooledPair(run, short, long)
	steps := float64(ranks * (long - short))
	perStep := dm / steps
	bound := ds/steps + 1
	t.Logf("%.2f allocations per steady-state rank-iteration (messages = %.2f)", perStep, bound-1)
	if perStep > bound {
		t.Errorf("%.2f allocations per steady-state rank-iteration, want ≤ %.2f", perStep, bound)
	}
}

// TestEventWildcardRecvOrder: wildcard receives in event mode match
// the OLDEST buffered message, and a by-source receive takes from the
// middle of the buffer without disturbing arrival order.
func TestEventWildcardRecvOrder(t *testing.T) {
	m := newMachine(t, 1, nil)
	var order []int
	prog := Seq(
		Do(func(pc *PC) {
			if pc.Rank() != 0 {
				pc.Send(0, pc.Rank(), f64bytes(float64(pc.Rank())))
			}
		}),
		RecvEach(func(pc *PC) []int {
			if pc.Rank() != 0 {
				return nil
			}
			return []int{2, AnySource, AnySource}
		}, AnyTag, func(_ *PC, data []byte, from int) {
			order = append(order, from)
		}),
	)
	job, err := NewProgram(m, 4, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	job.Run()
	if !job.Done() {
		t.Fatal("job did not complete")
	}
	// Ranks 1,2,3 send in dispatch order; rank 0 first takes rank 2's
	// (by source, mid-buffer), then the wildcard takes the oldest
	// remaining (1), then 3.
	want := []int{2, 1, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("receive order %v, want %v", order, want)
	}
}

// TestEventIrecvWaitallAcrossPEs: nonblocking receives posted before
// their sends complete across 4 PEs under the parallel driver.
func TestEventIrecvWaitallAcrossPEs(t *testing.T) {
	const size = 64
	m := newMachine(t, 4, nil)
	got := make([]float64, size)
	prog := Seq(
		Do(func(pc *PC) {
			n := pc.Size()
			st := &mixState{}
			pc.Local = st
			st.reqs = []*Req{
				pc.Irecv((pc.Rank()-1+n)%n, 5),
				pc.Irecv((pc.Rank()-n/2+n)%n, 6),
			}
			pc.Send((pc.Rank()+1)%n, 5, f64bytes(float64(pc.Rank())))
			pc.Send((pc.Rank()+n/2)%n, 6, f64bytes(float64(pc.Rank())*10))
		}),
		Waitall(func(pc *PC) []*Req { return pc.Local.(*mixState).reqs }),
		Do(func(pc *PC) {
			rs := pc.Local.(*mixState).reqs
			got[pc.Rank()] = f64(rs[0].Data) + f64(rs[1].Data)
		}),
	)
	job, err := NewProgram(m, size, Options{Mode: ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunParallel(func(bool) bool { return job.Done() })
	if !job.Done() {
		t.Fatal("job did not complete")
	}
	for r := 0; r < size; r++ {
		want := float64((r-1+size)%size) + float64((r-size/2+size)%size)*10
		if got[r] != want {
			t.Fatalf("rank %d combined %v, want %v", r, got[r], want)
		}
	}
}

// TestEventStress drives ≥100k event ranks through a halo exchange
// under the parallel driver — with -race this is the satellite's
// concurrency stress (the same binary runs it race-free in the plain
// suite).
func TestEventStress(t *testing.T) {
	ranks := 100_000
	if testing.Short() {
		ranks = 10_000
	}
	m := newMachine(t, 4, nil)
	cfg := JacobiConfig{Ranks: ranks, Iters: 2, Mode: ModeEvent, BlockPlacement: true}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	job, err := NewProgram(m, ranks, Options{Mode: ModeEvent, BlockPlacement: true}, JacobiProgram(cfg))
	if err != nil {
		t.Fatal(err)
	}
	job.Start()
	m.RunParallel(func(bool) bool { return job.Done() })
	if !job.Done() {
		t.Fatal("stress job did not complete")
	}
	if vt := job.PredictedNs(); vt <= 0 {
		t.Fatalf("predicted time %v, want > 0", vt)
	}
}

// TestEventFootprintReleased: a completed event job must return the
// Machine to its idle footprint — directory entries gone, the shared
// handler range gone, and the contiguous store released. A rank that
// completes while the store lives on (every rank of a sharded run)
// drops its frame stack and its collective map by itself, and a
// running rank's popped frames hold on to nothing.
func TestEventFootprintReleased(t *testing.T) {
	{
		m := newMachine(t, 2, nil)
		reqs := []*Req{{done: true}}
		job, err := NewProgram(m, 2, Options{Mode: ModeEvent}, Seq(
			Allreduce("sum", func(pc *PC) float64 { return 1 }, nil),
			Seq(Seq(Waitall(func(*PC) []*Req { return reqs }))),
			RecvEach(func(pc *PC) []int {
				if pc.Rank() == 0 {
					return nil
				}
				return []int{0} // never sent: rank 1 stays parked
			}, 99, nil),
		))
		if err != nil {
			t.Fatal(err)
		}
		job.Run()
		ranks := job.store()
		if ranks == nil || !ranks[0].done || ranks[1].done {
			t.Fatal("want rank 0 finished and rank 1 parked in a live store")
		}
		if pc := &ranks[0].pc; pc.stack != nil || pc.colls != nil {
			t.Fatalf("finished rank keeps stack %v and collective map %v", pc.stack, pc.colls)
		}
		st := ranks[1].pc.stack
		if len(st) != 2 || cap(st) < 4 {
			t.Fatalf("parked rank: stack len %d cap %d, want 2 frames of a deeper history", len(st), cap(st))
		}
		for _, f := range st[len(st):cap(st)] {
			if f.p != nil || f.reqs != nil {
				t.Fatalf("popped frame still references %T / %d requests", f.p, len(f.reqs))
			}
		}
	}

	const ranks = 50_000
	m := newMachine(t, 2, nil)
	baseEntities := m.Network().NumEntities()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	cfg := JacobiConfig{Ranks: ranks, Iters: 2, Mode: ModeEvent}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	job, err := NewProgram(m, ranks, Options{Mode: ModeEvent}, JacobiProgram(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Network().NumEntities(); got != baseEntities+ranks {
		t.Fatalf("registered entities %d, want %d", got, baseEntities+ranks)
	}
	job.Run()
	if !job.Done() {
		t.Fatal("job did not complete")
	}
	if got := m.Network().NumEntities(); got != baseEntities {
		t.Fatalf("after completion the directory holds %d entities, want %d", got, baseEntities)
	}
	if err := m.RegisterEntityRange(job.ev.base, job.ev.base+ranks-1, nil); err != nil {
		t.Fatalf("after completion the job's entity range is still installed: %v", err)
	}
	if job.store() != nil {
		t.Fatal("after completion the contiguous store was not released")
	}
	// VT results must survive the release.
	if vt := job.PredictedNs(); vt <= 0 {
		t.Fatalf("predicted time %v after release, want > 0", vt)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapInuse) - int64(before.HeapInuse)
	// 50k retired ranks should leave only the VT snapshot (8 B/rank)
	// plus noise; 64 B/rank of slack is an order of magnitude of
	// headroom without being flaky.
	if limit := int64(ranks * 64); delta > limit {
		t.Fatalf("heap grew %d bytes after a completed %d-rank job (limit %d)", delta, ranks, limit)
	}
}

// TestSendPayloadRegimes pins Send's ownership rule in both backends.
// A payload of at most comm.InlineBytes is copied into the message, so
// a sender that overwrites its buffer right after Send does not change
// what the receiver gets; a longer one is lent, and in-process the
// receiver sees the sender's very bytes.
func TestSendPayloadRegimes(t *testing.T) {
	for _, mode := range []string{ModeULT, ModeEvent} {
		var short, long []byte
		fromRank0 := func(pc *PC) []int {
			if pc.Rank() == 1 {
				return []int{0}
			}
			return nil
		}
		job, err := NewProgram(newMachine(t, 2, nil), 2, Options{Mode: mode}, Seq(
			Do(func(pc *PC) {
				if pc.Rank() != 0 {
					return
				}
				short = bytes.Repeat([]byte{1}, comm.InlineBytes)
				pc.Send(1, 1, short)
				clear(short)
				long = bytes.Repeat([]byte{2}, comm.InlineBytes+1)
				pc.Send(1, 2, long)
			}),
			RecvEach(fromRank0, 1, func(_ *PC, data []byte, _ int) {
				if !bytes.Equal(data, bytes.Repeat([]byte{1}, comm.InlineBytes)) {
					t.Errorf("%s: %d-byte payload arrived as %v after the sender cleared its buffer", mode, comm.InlineBytes, data)
				}
			}),
			RecvEach(fromRank0, 2, func(_ *PC, data []byte, _ int) {
				if len(data) != len(long) || &data[0] != &long[0] {
					t.Errorf("%s: %d-byte payload was copied, want it lent by reference", mode, len(long))
				}
			}),
		))
		if err != nil {
			t.Fatal(err)
		}
		job.Run()
		if !job.Done() {
			t.Fatalf("%s: job did not complete", mode)
		}
	}
}
