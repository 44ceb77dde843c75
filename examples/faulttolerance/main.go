// Faulttolerance: the paper's proactive fault-tolerance scenario (§3:
// migration can "vacate a node that is expected to fail or be shut
// down") plus checkpoint/restart for event-driven objects
// ("checkpointing is simply migration to disk").
//
// Part 1 runs an AMPI-style job, receives a failure warning for PE 0,
// evacuates every thread off it mid-run, and finishes on the
// survivors. Part 2 runs an event-driven AMPI job that checkpoints its
// ranks' continuation records to a file, "loses" the machine, and
// restores onto a smaller one; the restored job takes a second,
// in-memory checkpoint, loses one more PE, and finishes from it on the
// one left. Every finish predicts what the uninterrupted run predicted.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"migflow/internal/ampi"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/migrate"
	"migflow/internal/pup"
	"migflow/internal/trace"
)

func main() {
	vacateDemo()
	fmt.Println()
	checkpointDemo()
}

func vacateDemo() {
	fmt.Println("== proactive fault tolerance: vacating PE 0 ==")
	machine, err := core.NewMachine(core.Config{NumPEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	tlog := machine.EnableTracing()

	// Twelve workers, three per PE, each doing two phases of work
	// with a suspension between (waiting for "the next timestep").
	const workers = 12
	var threads []*converse.Thread
	finishedOn := make([]int, workers)
	for i := 0; i < workers; i++ {
		i := i
		pe := machine.PE(i % 4)
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{Strategy: migrate.Isomalloc{}}, func(c *converse.Ctx) {
			c.Work(50_000)
			c.Suspend() // parked when the failure warning arrives
			c.Work(50_000)
			finishedOn[i] = c.PE().Index
		})
		if err != nil {
			log.Fatal(err)
		}
		pe.Sched.Start(th)
		threads = append(threads, th)
	}
	machine.RunUntilQuiescent() // phase 1 done; all parked

	fmt.Printf("failure predicted on PE 0 — evacuating %d resident threads\n", machine.PE(0).Sched.Live())
	moved, err := machine.Vacate(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evacuated %d threads (suspended mid-computation, moved without their cooperation)\n", moved)

	for _, th := range threads {
		th.Awaken() // next timestep
	}
	machine.RunUntilQuiescent()
	perPE := map[int]int{}
	for i, pe := range finishedOn {
		if pe == 0 && i%4 == 0 {
			log.Fatalf("worker %d finished on the vacated PE", i)
		}
		perPE[pe]++
	}
	fmt.Printf("phase 2 completion by PE: %v (PE 0 idle, as ordered)\n", perPE)
	c := tlog.Counts()
	fmt.Printf("trace: %d context switches, %d migrations\n", c[trace.EvSwitchIn], c[trace.EvMigrateOut])
}

// ringProgram runs eight rounds of a ring exchange — each rank's state
// is one sum, which it sends to the right and into which it folds what
// arrives from the left — checkpointing to disk after round 3 and to
// memory after round 6.
func ringProgram(disk, memory io.Writer, sums []uint64) ampi.Proc {
	sum := func(pc *ampi.PC) *uint64 { return pc.Local.(*uint64) }
	round := ampi.Seq(
		ampi.Do(func(pc *ampi.PC) {
			pc.Send((pc.Rank()+1)%pc.Size(), 0, []byte{byte(pc.Rank()), byte(*sum(pc))})
			pc.Work(float64(1000 * (pc.Rank() + 1)))
		}),
		ampi.RecvFrom(func(pc *ampi.PC) int { return (pc.Rank() + pc.Size() - 1) % pc.Size() }, 0,
			func(pc *ampi.PC, data []byte, _ int) { *sum(pc) = 3**sum(pc) + uint64(data[0]+data[1]) }),
	)
	rounds := func(n int) ampi.Proc { return ampi.For(n, func(int) ampi.Proc { return round }) }
	return ampi.Seq(ampi.Do(func(pc *ampi.PC) { pc.Local = new(uint64) }),
		rounds(3), ampi.Checkpoint(disk), rounds(3), ampi.Checkpoint(memory), rounds(2),
		ampi.Do(func(pc *ampi.PC) { sums[pc.Rank()] = *sum(pc) }))
}

func checkpointDemo() {
	fmt.Println("== checkpoint/restart: continuation records to disk and back ==")
	opts := ampi.Options{Mode: ampi.ModeEvent, MsgOverheadNs: 200,
		LocalPUP: func(p *pup.PUPer, local any) (any, error) {
			sum, _ := local.(*uint64)
			if sum == nil {
				sum = new(uint64)
			}
			return sum, p.Uint64(sum)
		}}
	// run builds the 8-rank job, or restores it from image, on a pes-PE
	// machine and runs it to the end.
	run := func(pes int, image io.Reader, disk, memory io.Writer) string {
		m, err := core.NewMachine(core.Config{NumPEs: pes})
		if err != nil {
			log.Fatal(err)
		}
		sums := make([]uint64, 8)
		prog := ringProgram(disk, memory, sums)
		var job *ampi.Job
		if image == nil {
			job, err = ampi.NewProgram(m, len(sums), opts, prog)
		} else {
			job, err = ampi.Restore(m, prog, opts, image)
		}
		if err != nil {
			log.Fatal(err)
		}
		if job.Run(); job.Err() != nil {
			log.Fatal(job.Err())
		}
		return fmt.Sprintf("predicted %.0f ns, sums %v", job.PredictedNs(), sums)
	}

	disk, err := os.CreateTemp("", "migflow-*.ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(disk.Name())
	defer disk.Close()
	want := run(4, nil, disk, io.Discard)
	size, err := disk.Seek(0, io.SeekCurrent)
	if err == nil {
		_, err = disk.Seek(0, io.SeekStart)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted on 4 PEs: %s; the checkpoint after round 3 wrote 8 ranks in %d bytes\n", want, size)

	// The machine fails: restart from the file on a 2-PE replacement,
	// which takes an in-memory checkpoint after round 6. Then one of its
	// PEs fails: finish from memory on the one left.
	var memory bytes.Buffer
	for _, step := range []struct {
		what  string
		pes   int
		image io.Reader
	}{{"from disk onto a 2-PE machine", 2, disk}, {"from memory onto the 1 PE left", 1, &memory}} {
		if got := run(step.pes, step.image, io.Discard, &memory); got != want {
			log.Fatalf("restored %s: %s, want %s", step.what, got, want)
		}
		fmt.Printf("restored %s and finished: same prediction and sums\n", step.what)
	}
}
