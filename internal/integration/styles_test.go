// Package integration holds cross-layer scenario tests: whole-stack
// flows that single-package tests cannot exercise.
package integration

import (
	"encoding/binary"
	"math"
	"testing"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/coro"
)

// The paper's §2 taxonomy: the same computation can be organized as
// blocking threads, as a structured-event (SDAG) program, or as
// a hand-rolled return-switch coroutine. This test runs one program —
// a 1-D Jacobi iteration with ghost exchange over a ring — in all
// three styles and demands bit-identical numerical results.

const (
	nStrips  = 4
	nCells   = 8
	nIters   = 10
	tagLeft  = 1
	tagRight = 2
)

// jacobiInit gives strip i its initial cells.
func jacobiInit(i int) []float64 {
	g := make([]float64, nCells)
	for j := range g {
		if (i*nCells+j)%3 == 0 {
			g[j] = float64(i + 1)
		}
	}
	return g
}

// sweep advances one strip one iteration given its ghosts.
func sweep(grid []float64, left, right float64) []float64 {
	next := make([]float64, len(grid))
	for i := range grid {
		l, r := left, right
		if i > 0 {
			l = grid[i-1]
		}
		if i < len(grid)-1 {
			r = grid[i+1]
		}
		next[i] = 0.5 * (l + r)
	}
	return next
}

func f64b(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func bf64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// checksum folds a final grid state into one comparable value.
func checksum(grids [][]float64) []float64 {
	var flat []float64
	for _, g := range grids {
		flat = append(flat, g...)
	}
	return flat
}

// Style 1: blocking AMPI threads.
func runThreads(t *testing.T) []float64 {
	m, err := core.NewMachine(core.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	grids := make([][]float64, nStrips)
	j, err := ampi.NewJob(m, nStrips, ampi.Options{}, func(r *ampi.Rank) {
		grid := jacobiInit(r.Rank())
		left := (r.Rank() + nStrips - 1) % nStrips
		right := (r.Rank() + 1) % nStrips
		for it := 0; it < nIters; it++ {
			if err := r.Send(left, tagRight, f64b(grid[0])); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			if err := r.Send(right, tagLeft, f64b(grid[nCells-1])); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			lb, _, err := r.Recv(left, tagLeft)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			rb, _, err := r.Recv(right, tagRight)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			grid = sweep(grid, bf64(lb), bf64(rb))
		}
		grids[r.Rank()] = grid
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatal("thread style hung")
	}
	return checksum(grids)
}

// Style 2: structured events — the paper's SDAG program (§2.4.2, Fig 1)
// as a Proc tree on event ranks. The for loop is For, each atomic block
// a Do, and overlap { when left; when right } two Irecvs and a Waitall:
// receives are FIFO per (source, tag), so no iteration reference number
// is needed. The strip and its requests live in PC.Local.
type eventStrip struct {
	grid []float64
	reqs []*ampi.Req
}

func runEvent(t *testing.T) []float64 {
	m, err := core.NewMachine(core.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	grids := make([][]float64, nStrips)
	strip := func(pc *ampi.PC) *eventStrip { return pc.Local.(*eventStrip) }
	iteration := ampi.Seq(
		ampi.Do(func(pc *ampi.PC) {
			s := strip(pc)
			left := (pc.Rank() + nStrips - 1) % nStrips
			right := (pc.Rank() + 1) % nStrips
			pc.Send(left, tagRight, f64b(s.grid[0]))
			pc.Send(right, tagLeft, f64b(s.grid[nCells-1]))
			s.reqs = append(s.reqs[:0], pc.Irecv(left, tagLeft), pc.Irecv(right, tagRight))
		}),
		ampi.Waitall(func(pc *ampi.PC) []*ampi.Req { return strip(pc).reqs }),
		ampi.Do(func(pc *ampi.PC) {
			s := strip(pc)
			s.grid = sweep(s.grid, bf64(s.reqs[0].Data), bf64(s.reqs[1].Data))
		}),
	)
	prog := ampi.Seq(
		ampi.Do(func(pc *ampi.PC) { pc.Local = &eventStrip{grid: jacobiInit(pc.Rank())} }),
		ampi.For(nIters, func(int) ampi.Proc { return iteration }),
		ampi.Do(func(pc *ampi.PC) { grids[pc.Rank()] = strip(pc).grid }),
	)
	j, err := ampi.NewProgram(m, nStrips, ampi.Options{Mode: ampi.ModeEvent}, prog)
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if !j.Done() {
		t.Fatal("structured-event style hung")
	}
	return checksum(grids)
}

// Style 3: return-switch coroutines driven by a hand-written
// scheduler loop (the §2.4.1 style — all state parked manually; here
// the grid lives beside the coroutine, the ghosts and iteration
// counter in its State).
func runCoro(t *testing.T) []float64 {
	grids := make([][]float64, nStrips)
	for i := range grids {
		grids[i] = jacobiInit(i)
	}
	// The "network": ghost values posted for (strip, side, iter).
	type key struct {
		strip, side int
		iter        uint64
	}
	mail := map[key]float64{}
	post := func(strip, side int, iter uint64, v float64) { mail[key{strip, side, iter}] = v }

	// The return-switch pattern: every suspension is a `return` with
	// the label to resume at; every local that must survive lives in
	// the State ("iter") — forget one and it silently resets (§2.4.1:
	// "confusing, error-prone and tough to debug").
	const (
		labelSend = coro.Begin
		labelWait = 1
	)
	mkStep := func(i int) coro.Step {
		return func(s *coro.State, _ uint64) (uint64, int, bool) {
			switch s.Line() {
			case labelSend: // send ghosts for the current iteration
				it := s.Get("iter")
				left := (i + nStrips - 1) % nStrips
				right := (i + 1) % nStrips
				post(left, 1, it, grids[i][0])         // neighbour's right ghost
				post(right, 0, it, grids[i][nCells-1]) // neighbour's left ghost
				return 0, labelWait, false
			case labelWait: // resume here until both ghosts arrived
				it := s.Get("iter")
				lk, rk := key{i, 0, it}, key{i, 1, it}
				lv, lok := mail[lk]
				rv, rok := mail[rk]
				if !lok || !rok {
					return 0, labelWait, false
				}
				delete(mail, lk)
				delete(mail, rk)
				grids[i] = sweep(grids[i], lv, rv)
				s.Set("iter", it+1)
				if it+1 == nIters {
					return 0, labelWait, true
				}
				return 0, labelSend, false
			}
			panic("bad label")
		}
	}
	var cs []*coro.Coroutine
	for i := 0; i < nStrips; i++ {
		cs = append(cs, coro.New(mkStep(i)))
	}
	// Scheduler: round-robin resume until all done.
	for guard := 0; ; guard++ {
		if guard > 100000 {
			t.Fatal("coro style did not converge")
		}
		alldone := true
		for _, c := range cs {
			if !c.Done() {
				alldone = false
				if _, err := c.Resume(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if alldone {
			break
		}
	}
	return checksum(grids)
}

// TestThreeStylesAgree pins the §2 equivalence: the same computation
// in thread, structured-event and return-switch styles produces
// identical numbers. The return-switch coroutines run outside the
// runtime, so they are the reference the other two are held to.
func TestThreeStylesAgree(t *testing.T) {
	ref := runCoro(t)
	for _, style := range []struct {
		name string
		run  func(*testing.T) []float64
	}{{"threads", runThreads}, {"structured events", runEvent}} {
		got := style.run(t)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d values, coro %d", style.name, len(got), len(ref))
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s vs coro differ at %d: %g vs %g", style.name, i, got[i], ref[i])
			}
		}
	}
}
