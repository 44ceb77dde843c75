package ampi

import "testing"

// TestYieldAndWtime: MPI_Yield inside a statement interleaves two
// single-rank thread jobs on one PE, and the PE clock MPI_Wtime reads
// advances by the work done in between.
func TestYieldAndWtime(t *testing.T) {
	m := newMachine(t, 1, nil)
	var order []int
	var t0, t1 float64
	for id := 0; id < 2; id++ {
		j, err := NewProgram(m, 1, Options{}, Do(func(pc *PC) {
			order = append(order, id)
			t0 = m.PE(pc.PE()).Clock.Now()
			pc.Yield() // let the other job's rank run
			pc.Work(1e6)
			t1 = m.PE(pc.PE()).Clock.Now()
			order = append(order, id)
		}))
		if err != nil {
			t.Fatal(err)
		}
		j.Start()
	}
	m.RunUntilQuiescent()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// Yield interleaved the two single-rank jobs on the one PE.
	if order[0] == order[1] {
		t.Errorf("no interleave: %v", order)
	}
	if t1-t0 < 1e6 {
		t.Errorf("PE clock advanced %g ns across Work(1e6)", t1-t0)
	}
}

func TestCombinerOps(t *testing.T) {
	for _, op := range []string{"sum", "max", "min"} {
		f, err := combiner(op)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		got := f(3, 5)
		switch op {
		case "sum":
			if got != 8 {
				t.Errorf("sum = %g", got)
			}
		case "max":
			if got != 5 {
				t.Errorf("max = %g", got)
			}
		case "min":
			if got != 3 {
				t.Errorf("min = %g", got)
			}
		}
		// Symmetric check with reversed args.
		if op == "max" && f(5, 3) != 5 {
			t.Error("max not symmetric")
		}
		if op == "min" && f(5, 3) != 3 {
			t.Error("min not symmetric")
		}
	}
	if _, err := combiner("mode"); err == nil {
		t.Error("unknown combiner accepted")
	}
}

// TestReduceBadRootAndOp: an unknown op fails when the statement is
// built; a root outside the job, or an Alltoall without one chunk per
// rank, when a rank runs it.
func TestReduceBadRootAndOp(t *testing.T) {
	val := func(*PC) float64 { return 1 }
	wantPanic(t, "Reduce(0, median)", panicOf(func() { Reduce(0, "median", val, nil) }), `unknown reduction op "median"`)
	wantPanic(t, "Reduce(9)", runPanics(t, 1, Reduce(9, "sum", val, nil)), "Reduce root 9 of 1")
	wantPanic(t, "Gather(9)", runPanics(t, 1, Gather(9, func(*PC) []byte { return nil }, nil)), "Gather root 9 of 1")
	wantPanic(t, "Scatter(9)", runPanics(t, 1, Scatter(9, func(*PC) [][]byte { return nil }, nil)), "Scatter root 9 of 1")
	wantPanic(t, "Alltoall(nil)", runPanics(t, 1, Alltoall(func(*PC) [][]byte { return nil }, nil)), "Alltoall: 0 chunks for 1 ranks")
}

func TestSendrecvBadArgs(t *testing.T) {
	got := runPanics(t, 1, Sendrecv(99, 1, func(*PC) []byte { return nil }, 0, 1, nil))
	wantPanic(t, "Sendrecv to rank 99", got, "rank 99 of 1")
}

// TestLoadDatabaseShape: the load database an LB step reads holds one
// sample per rank carrying the work it did, and sums per PE.
func TestLoadDatabaseShape(t *testing.T) {
	j, _ := runProg(t, 2, 4, Options{}, Do(func(pc *PC) { pc.Work(float64(1000 * (pc.Rank() + 1))) }))
	db := j.collectLoads(nil)
	if len(db) != 4 {
		t.Fatalf("db = %v", db)
	}
	var total float64
	for _, it := range db {
		total += it.Load
	}
	if total != 1000+2000+3000+4000 {
		t.Errorf("total load = %g", total)
	}
	loads := j.PELoads()
	if len(loads) != 2 || loads[0]+loads[1] != total {
		t.Errorf("PELoads = %v", loads)
	}
}
