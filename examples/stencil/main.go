// Stencil: the paper's Figure 1 — a parallel 5-point stencil with 1-D
// decomposition and ghost-cell exchange, written in the Structured
// Dagger style (§2.4.2) and run on event-driven ranks (§2.4).
//
// Each rank owns a strip of the grid. Its life cycle is the SDAG
// program from the paper:
//
//	for (i=0; i<MAX_ITER; i++) {
//	  atomic { sendStripToLeftAndRight(); }
//	  overlap {
//	    when getStripFromLeft(msg)  { atomic { copyStripFromLeft(msg); } }
//	    when getStripFromRight(msg) { atomic { copyStripFromRight(msg); } }
//	  }
//	  atomic { doWork(); }
//	}
//
// as a Proc tree: the for loop is For, each atomic block a Do, and the
// overlap two Irecvs completed by one Waitall, in whichever order the
// strips arrive. The strip and its requests live in PC.Local; the
// program is code, shared by every rank.
//
// Run with: go run ./examples/stencil
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"migflow/internal/ampi"
	"migflow/internal/core"
)

const (
	cells   = 64 // grid points per strip
	strips  = 8
	maxIter = 50

	tagLeft  = 1 // getStripFromLeft
	tagRight = 2 // getStripFromRight
)

// strip is one rank's state: its part of the grid, the two outstanding
// ghost receives and the last sweep's residual.
type strip struct {
	grid []float64
	reqs []*ampi.Req
	res  float64
}

func stripOf(pc *ampi.PC) *strip { return pc.Local.(*strip) }

// lifeCycle builds the Figure 1 program; done receives each strip's
// residual after the last iteration.
func lifeCycle(done func(i int, residual float64)) ampi.Proc {
	iteration := ampi.Seq(
		ampi.Do(func(pc *ampi.PC) { // sendStripToLeftAndRight
			s := stripOf(pc)
			left := (pc.Rank() + pc.Size() - 1) % pc.Size()
			right := (pc.Rank() + 1) % pc.Size()
			pc.Send(left, tagRight, f64(s.grid[0]))
			pc.Send(right, tagLeft, f64(s.grid[len(s.grid)-1]))
			// overlap: both ghosts are posted at once and land in
			// either order.
			s.reqs = append(s.reqs[:0], pc.Irecv(left, tagLeft), pc.Irecv(right, tagRight))
		}),
		ampi.Waitall(func(pc *ampi.PC) []*ampi.Req { return stripOf(pc).reqs }),
		ampi.Do(func(pc *ampi.PC) { // copyStripFromLeft/Right, then doWork
			s := stripOf(pc)
			left, right := f64of(s.reqs[0].Data), f64of(s.reqs[1].Data)
			next := make([]float64, len(s.grid))
			for i := range s.grid {
				l, r := left, right
				if i > 0 {
					l = s.grid[i-1]
				}
				if i < len(s.grid)-1 {
					r = s.grid[i+1]
				}
				next[i] = 0.5 * (l + r)
			}
			s.res = 0
			for i := range next {
				s.res += math.Abs(next[i] - s.grid[i])
			}
			s.grid = next
			pc.Work(float64(len(s.grid)) * 30) // modeled FLOPs
		}),
	)
	return ampi.Seq(
		ampi.Do(func(pc *ampi.PC) {
			g := make([]float64, cells)
			for j := range g {
				// A step-function initial condition that must diffuse.
				if pc.Rank()*cells+j < strips*cells/2 {
					g[j] = 1
				}
			}
			pc.Local = &strip{grid: g}
		}),
		ampi.For(maxIter, func(int) ampi.Proc { return iteration }),
		ampi.Do(func(pc *ampi.PC) { done(pc.Rank(), stripOf(pc).res) }),
	)
}

func f64(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func f64of(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func main() {
	machine, err := core.NewMachine(core.Config{NumPEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	residuals := make([]float64, strips)
	finished := 0
	job, err := ampi.NewProgram(machine, strips, ampi.Options{Mode: ampi.ModeEvent},
		lifeCycle(func(i int, res float64) {
			residuals[i] = res
			finished++
		}))
	if err != nil {
		log.Fatal(err)
	}
	job.Run()

	if finished != strips {
		log.Fatalf("only %d of %d strips finished", finished, strips)
	}
	var total float64
	for i, r := range residuals {
		fmt.Printf("strip %d (PE %d): residual %.6f\n", i, job.PEOf(i), r)
		total += r
	}
	fmt.Printf("\n%d iterations on %d strips over %d PEs; total residual %.6f\n",
		maxIter, strips, machine.NumPEs(), total)
	fmt.Printf("messages sent: %d; predicted time %.1f µs\n",
		machine.Network().Snapshot().Sent, job.PredictedNs()/1000)
}
