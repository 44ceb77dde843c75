package ampi

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestTreeFamilyShape checks the k-ary tree is a well-formed spanning
// tree for many (size, arity, root) combinations: every non-root has
// exactly one parent, parent/child views agree, and the tree is
// connected.
func TestTreeFamilyShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33} {
		for _, k := range []int{1, 2, 3, 4, 8} {
			for _, root := range []int{0, 1, n - 1} {
				if root < 0 || root >= n {
					continue
				}
				opts := Options{TreeArity: k}
				parents := make(map[int]int)
				for i := 0; i < n; i++ {
					p, children := collFamily(nil, collBarrier, i, n, &opts, root)
					if i == root && p != -1 {
						t.Fatalf("n=%d k=%d root=%d: root has parent %d", n, k, root, p)
					}
					if i != root && (p < 0 || p >= n) {
						t.Fatalf("n=%d k=%d root=%d: rank %d parent %d out of range", n, k, root, i, p)
					}
					if len(children) > k {
						t.Fatalf("n=%d k=%d: rank %d has %d children", n, k, i, len(children))
					}
					for _, c := range children {
						if old, dup := parents[c]; dup {
							t.Fatalf("n=%d k=%d root=%d: rank %d has parents %d and %d", n, k, root, c, old, i)
						}
						parents[c] = i
					}
				}
				if len(parents) != n-1 {
					t.Fatalf("n=%d k=%d root=%d: %d edges, want %d", n, k, root, len(parents), n-1)
				}
				for c, p := range parents {
					gotP, _ := collFamily(nil, collBarrier, c, n, &opts, root)
					if gotP != p {
						t.Fatalf("n=%d k=%d root=%d: rank %d sees parent %d, parent list says %d", n, k, root, c, gotP, p)
					}
					// Walk to the root: bounded by n steps (no cycles).
					cur, steps := c, 0
					for cur != root {
						next, ok := parents[cur]
						if !ok || steps > n {
							t.Fatalf("n=%d k=%d root=%d: rank %d not connected to root", n, k, root, c)
						}
						cur, steps = next, steps+1
					}
				}
			}
		}
	}
}

// TestTreeBarrierArities runs a phased-counter barrier check across
// tree arities, including the degenerate chain (k=1).
func TestTreeBarrierArities(t *testing.T) {
	for _, arity := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("k%d", arity), func(t *testing.T) {
			const ranks, rounds = 9, 4
			var mu sync.Mutex
			phase := make([]int, ranks)
			round := func(i int) Proc {
				return Seq(
					Do(func(pc *PC) {
						mu.Lock()
						phase[pc.Rank()] = i
						mu.Unlock()
					}),
					Barrier(),
					// After the barrier no rank may still be in an earlier
					// round.
					Do(func(*PC) {
						mu.Lock()
						for rk, ph := range phase {
							if ph < i {
								t.Errorf("arity %d round %d: rank %d still at %d", arity, i, rk, ph)
							}
						}
						mu.Unlock()
					}),
				)
			}
			steps := make([]Proc, rounds)
			for i := range steps {
				steps[i] = round(i)
			}
			runProg(t, 3, ranks, Options{Collectives: CollTree, TreeArity: arity},
				For(rounds, func(i int) Proc { return steps[i] }))
		})
	}
}

// collOutcome is one rank's results from collSet.
type collOutcome struct {
	allred, red float64
	bcast       []byte
	gather      [][]byte
}

// collSet is the full collective set — Allreduce, then Reduce, Bcast
// and Gather rooted at root — recording each rank's results in out.
func collSet(root int, seed string, out []collOutcome) Proc {
	return Seq(
		Allreduce("sum", func(pc *PC) float64 { return float64(pc.Rank() + 1) },
			func(pc *PC, v float64) { out[pc.Rank()].allred = v }),
		Reduce(root, "max", func(pc *PC) float64 { return float64(pc.Rank() * 2) },
			func(pc *PC, v float64) { out[pc.Rank()].red = v }),
		Bcast(root, func(*PC) []byte { return []byte(seed) },
			func(pc *PC, b []byte) { out[pc.Rank()].bcast = b }),
		Gather(root, func(pc *PC) []byte { return []byte{byte(pc.Rank()), byte(pc.Rank() * 3)} },
			func(pc *PC, parts [][]byte) { out[pc.Rank()].gather = parts }),
	)
}

// sameOutcomes reports every rank where two runs of collSet disagree,
// and checks the allreduce against want and the gather's presence at
// root only.
func sameOutcomes(t *testing.T, aName, bName string, a, b []collOutcome, root int, want float64) {
	t.Helper()
	for rk := range a {
		if a[rk].allred != b[rk].allred || a[rk].allred != want {
			t.Errorf("rank %d allreduce: %s %g %s %g want %g", rk, aName, a[rk].allred, bName, b[rk].allred, want)
		}
		if a[rk].red != b[rk].red {
			t.Errorf("rank %d reduce: %s %g %s %g", rk, aName, a[rk].red, bName, b[rk].red)
		}
		if !bytes.Equal(a[rk].bcast, b[rk].bcast) {
			t.Errorf("rank %d bcast: %s %q %s %q", rk, aName, a[rk].bcast, bName, b[rk].bcast)
		}
		if (rk == root) != (a[rk].gather != nil) || len(a[rk].gather) != len(b[rk].gather) {
			t.Errorf("rank %d gather presence wrong", rk)
		}
		for i := range a[rk].gather {
			if !bytes.Equal(a[rk].gather[i], b[rk].gather[i]) {
				t.Errorf("rank %d gather[%d]: %s %v %s %v", rk, i, aName, a[rk].gather[i], bName, b[rk].gather[i])
			}
		}
	}
}

// TestFlatVsTreeResultsAgree runs the full collective set under both
// algorithms — including a non-zero root — and demands identical
// results.
func TestFlatVsTreeResultsAgree(t *testing.T) {
	const ranks, root = 10, 3
	run := func(algo CollAlgo) []collOutcome {
		out := make([]collOutcome, ranks)
		runProg(t, 4, ranks, Options{Collectives: algo, TreeArity: 3}, collSet(root, "tree-vs-flat", out))
		return out
	}
	sameOutcomes(t, "tree", "flat", run(CollTree), run(CollFlat), root, 55)
}

// TestTreeBackToBackReduce pins the robustness source-matched edges
// buy: consecutive Reduce epochs cannot steal each other's
// contributions even though no release phase separates them — under
// every topology, the flat star included (its root matches each child
// by rank, never AnySource).
func TestTreeBackToBackReduce(t *testing.T) {
	const ranks, epochs = 6, 5
	for _, algo := range []CollAlgo{CollTree, CollFlat, CollTopoTree} {
		got := make([]float64, epochs)
		steps := make([]Proc, epochs)
		for e := range steps {
			steps[e] = Reduce(0, "sum", func(pc *PC) float64 { return float64(pc.Rank()) + float64(e*100) },
				func(_ *PC, v float64) { got[e] = v })
		}
		runProg(t, 2, ranks, Options{Collectives: algo, TreeArity: 2},
			For(epochs, func(e int) Proc { return steps[e] }))
		for e := 0; e < epochs; e++ {
			want := float64(0+1+2+3+4+5) + float64(e*100*ranks)
			if got[e] != want {
				t.Errorf("%s epoch %d sum = %g, want %g", algoName(algo), e, got[e], want)
			}
		}
	}
}

// TestUnknownReductionOp is the negative test for the shared combiner:
// every reduction entry point must reject an unknown op — Rank.Allreduce
// with an error, the combinators when the statement is built.
func TestUnknownReductionOp(t *testing.T) {
	var allredErr error
	j, err := NewJob(newMachine(t, 1, nil), 2, Options{}, func(r *Rank) {
		if r.Rank() == 0 {
			_, allredErr = r.Allreduce("median", 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if allredErr == nil {
		t.Error("Rank.Allreduce accepted unknown op")
	}
	val := func(*PC) float64 { return 1 }
	for name, build := range map[string]func(){
		"Allreduce":  func() { Allreduce("median", val, nil) },
		"Iallreduce": func() { Iallreduce("median", val, nil) },
		"Reduce":     func() { Reduce(0, "avg", val, nil) },
		"Ireduce":    func() { Ireduce(0, "avg", val, nil) },
	} {
		wantPanic(t, name, panicOf(build), "unknown reduction op")
	}
}

func TestJobOptionValidation(t *testing.T) {
	m := newMachine(t, 1, nil)
	if _, err := NewJob(m, 1, Options{TreeArity: -1}, func(*Rank) {}); err == nil {
		t.Error("negative TreeArity accepted")
	}
	if _, err := NewJob(m, 1, Options{Collectives: CollAlgo(99)}, func(*Rank) {}); err == nil {
		t.Error("unknown collective algorithm accepted")
	}
}

// TestFlatRootSerializes is the virtual-time A/B the trees exist for:
// with a per-message software overhead, the flat barrier's root
// consumes P-1 messages serially — O(P) in its predicted time — while
// the tree charges O(k·log_k P) per rank. The tree must finish the same
// barriers in substantially less virtual time.
func TestFlatRootSerializes(t *testing.T) {
	const ranks, rounds, ovh = 48, 3, 8000.0
	elapsed := func(algo CollAlgo) float64 {
		barrier := Barrier()
		j, _ := runProg(t, 4, ranks, Options{Collectives: algo, MsgOverheadNs: ovh},
			For(rounds, func(int) Proc { return barrier }))
		return j.PredictedNs()
	}
	flat, tree := elapsed(CollFlat), elapsed(CollTree)
	if !(tree < flat) {
		t.Errorf("tree barrier not faster in virtual time: tree %g vs flat %g", tree, flat)
	}
	// The root's serialized receive burden alone is (P-1)·ovh per
	// barrier under flat; the tree's whole critical path is a few
	// tree levels. Demand a clear win, not a rounding error.
	if tree > 0.7*flat {
		t.Errorf("tree win too small: tree %g vs flat %g", tree, flat)
	}
}

// TestGatherUnpackHostile feeds malformed subtree packets to the
// parser.
func TestGatherUnpackHostile(t *testing.T) {
	if _, err := unpackGather([]byte{1, 2, 3}, 4); err == nil {
		t.Error("truncated header accepted")
	}
	bad := packGather([]gatherEntry{{rank: 9, data: []byte("x")}})
	if _, err := unpackGather(bad, 4); err == nil {
		t.Error("out-of-range rank accepted")
	}
	lie := packGather([]gatherEntry{{rank: 1, data: []byte("abc")}})
	lie = lie[:9] // header claims 3 bytes, only 1 present
	if _, err := unpackGather(lie, 4); err == nil {
		t.Error("over-long length accepted")
	}
	good := packGather([]gatherEntry{{rank: 0, data: nil}, {rank: 2, data: []byte("hi")}})
	entries, err := unpackGather(good, 4)
	if err != nil || len(entries) != 2 || entries[1].rank != 2 || string(entries[1].data) != "hi" {
		t.Errorf("round trip failed: %v %v", entries, err)
	}
}

// TestDerivedScheduleMatchesBuilders pins collSched.at against the five
// per-kind closure builders it replaced (one []collAct of data/on
// closures per execution): for every kind × position in the family ×
// topology, the (send, peer, tag) sequence below is the deleted
// builders' output, copied here before they went. The flat star has no
// interior rank. The scatter and alltoall rows are the send/receive
// order of the per-rank generated programs those two replaced, and
// are the same under every algorithm: both always use the star.
// Columns: algo, position, kind, ranks, rank, root.
func TestDerivedScheduleMatchesBuilders(t *testing.T) {
	type edge struct {
		send      bool
		peer, tag int
	}
	algos := map[string]Options{
		"tree": {Collectives: CollTree, TreeArity: 3},
		"flat": {Collectives: CollFlat, TreeArity: 3},
		"topo": {Collectives: CollTopoTree, TreeArity: 2, Topo: Topology{Nodes: 4, GroupSize: 2}, BlockPlacement: true},
	}
	kinds := map[string]collKind{
		"barrier": collBarrier, "allreduce": collAllreduce, "reduce": collReduce,
		"bcast": collBcast, "gather": collGather, "scatter": collScatter, "alltoall": collAlltoall,
	}
	for _, tc := range []struct {
		algo, where, kind string
		size, rank, root  int
		want              []edge
	}{
		{"tree", "root", "barrier", 13, 0, 0, []edge{{false, 1, -100}, {false, 2, -100}, {false, 3, -100}, {true, 1, -101}, {true, 2, -101}, {true, 3, -101}}},
		{"tree", "root", "allreduce", 13, 0, 0, []edge{{false, 1, -102}, {false, 2, -102}, {false, 3, -102}, {true, 1, -103}, {true, 2, -103}, {true, 3, -103}}},
		{"tree", "root", "reduce", 13, 2, 2, []edge{{false, 3, -201}, {false, 4, -201}, {false, 5, -201}}},
		{"tree", "root", "bcast", 13, 2, 2, []edge{{true, 3, -200}, {true, 4, -200}, {true, 5, -200}}},
		{"tree", "root", "gather", 13, 2, 2, []edge{{false, 3, -202}, {false, 4, -202}, {false, 5, -202}}},
		{"tree", "interior", "barrier", 13, 1, 0, []edge{{false, 4, -100}, {false, 5, -100}, {false, 6, -100}, {true, 0, -100}, {false, 0, -101}, {true, 4, -101}, {true, 5, -101}, {true, 6, -101}}},
		{"tree", "interior", "allreduce", 13, 1, 0, []edge{{false, 4, -102}, {false, 5, -102}, {false, 6, -102}, {true, 0, -102}, {false, 0, -103}, {true, 4, -103}, {true, 5, -103}, {true, 6, -103}}},
		{"tree", "interior", "reduce", 13, 3, 2, []edge{{false, 6, -201}, {false, 7, -201}, {false, 8, -201}, {true, 2, -201}}},
		{"tree", "interior", "bcast", 13, 3, 2, []edge{{false, 2, -200}, {true, 6, -200}, {true, 7, -200}, {true, 8, -200}}},
		{"tree", "interior", "gather", 13, 3, 2, []edge{{false, 6, -202}, {false, 7, -202}, {false, 8, -202}, {true, 2, -202}}},
		{"tree", "leaf", "barrier", 13, 4, 0, []edge{{true, 1, -100}, {false, 1, -101}}},
		{"tree", "leaf", "allreduce", 13, 4, 0, []edge{{true, 1, -102}, {false, 1, -103}}},
		{"tree", "leaf", "reduce", 13, 0, 2, []edge{{true, 5, -201}}},
		{"tree", "leaf", "bcast", 13, 0, 2, []edge{{false, 5, -200}}},
		{"tree", "leaf", "gather", 13, 0, 2, []edge{{true, 5, -202}}},
		{"tree", "single", "barrier", 1, 0, 0, []edge{}},
		{"tree", "single", "allreduce", 1, 0, 0, []edge{}},
		{"tree", "single", "reduce", 1, 0, 0, []edge{}},
		{"tree", "single", "bcast", 1, 0, 0, []edge{}},
		{"tree", "single", "gather", 1, 0, 0, []edge{}},
		{"tree", "root", "scatter", 13, 2, 2, []edge{{true, 0, -203}, {true, 1, -203}, {true, 3, -203}, {true, 4, -203}, {true, 5, -203}, {true, 6, -203}, {true, 7, -203}, {true, 8, -203}, {true, 9, -203}, {true, 10, -203}, {true, 11, -203}, {true, 12, -203}}},
		{"tree", "leaf", "scatter", 13, 0, 2, []edge{{false, 2, -203}}},
		{"tree", "middle", "scatter", 13, 6, 2, []edge{{false, 2, -203}}},
		{"tree", "first", "alltoall", 13, 0, 2, []edge{{true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 6, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {true, 12, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 6, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}, {false, 12, -204}}},
		{"tree", "middle", "alltoall", 13, 6, 2, []edge{{true, 0, -204}, {true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {true, 12, -204}, {false, 0, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}, {false, 12, -204}}},
		{"tree", "last", "alltoall", 13, 12, 2, []edge{{true, 0, -204}, {true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 6, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {false, 0, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 6, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}}},
		{"flat", "root", "barrier", 13, 0, 0, []edge{{false, 1, -100}, {false, 2, -100}, {false, 3, -100}, {false, 4, -100}, {false, 5, -100}, {false, 6, -100}, {false, 7, -100}, {false, 8, -100}, {false, 9, -100}, {false, 10, -100}, {false, 11, -100}, {false, 12, -100}, {true, 1, -101}, {true, 2, -101}, {true, 3, -101}, {true, 4, -101}, {true, 5, -101}, {true, 6, -101}, {true, 7, -101}, {true, 8, -101}, {true, 9, -101}, {true, 10, -101}, {true, 11, -101}, {true, 12, -101}}},
		{"flat", "root", "allreduce", 13, 0, 0, []edge{{false, 1, -102}, {false, 2, -102}, {false, 3, -102}, {false, 4, -102}, {false, 5, -102}, {false, 6, -102}, {false, 7, -102}, {false, 8, -102}, {false, 9, -102}, {false, 10, -102}, {false, 11, -102}, {false, 12, -102}, {true, 1, -103}, {true, 2, -103}, {true, 3, -103}, {true, 4, -103}, {true, 5, -103}, {true, 6, -103}, {true, 7, -103}, {true, 8, -103}, {true, 9, -103}, {true, 10, -103}, {true, 11, -103}, {true, 12, -103}}},
		{"flat", "root", "reduce", 13, 2, 2, []edge{{false, 0, -201}, {false, 1, -201}, {false, 3, -201}, {false, 4, -201}, {false, 5, -201}, {false, 6, -201}, {false, 7, -201}, {false, 8, -201}, {false, 9, -201}, {false, 10, -201}, {false, 11, -201}, {false, 12, -201}}},
		{"flat", "root", "bcast", 13, 2, 2, []edge{{true, 0, -200}, {true, 1, -200}, {true, 3, -200}, {true, 4, -200}, {true, 5, -200}, {true, 6, -200}, {true, 7, -200}, {true, 8, -200}, {true, 9, -200}, {true, 10, -200}, {true, 11, -200}, {true, 12, -200}}},
		{"flat", "root", "gather", 13, 2, 2, []edge{{false, 0, -202}, {false, 1, -202}, {false, 3, -202}, {false, 4, -202}, {false, 5, -202}, {false, 6, -202}, {false, 7, -202}, {false, 8, -202}, {false, 9, -202}, {false, 10, -202}, {false, 11, -202}, {false, 12, -202}}},
		{"flat", "leaf", "barrier", 13, 1, 0, []edge{{true, 0, -100}, {false, 0, -101}}},
		{"flat", "leaf", "allreduce", 13, 1, 0, []edge{{true, 0, -102}, {false, 0, -103}}},
		{"flat", "leaf", "reduce", 13, 0, 2, []edge{{true, 2, -201}}},
		{"flat", "leaf", "bcast", 13, 0, 2, []edge{{false, 2, -200}}},
		{"flat", "leaf", "gather", 13, 0, 2, []edge{{true, 2, -202}}},
		{"flat", "single", "barrier", 1, 0, 0, []edge{}},
		{"flat", "single", "allreduce", 1, 0, 0, []edge{}},
		{"flat", "single", "reduce", 1, 0, 0, []edge{}},
		{"flat", "single", "bcast", 1, 0, 0, []edge{}},
		{"flat", "single", "gather", 1, 0, 0, []edge{}},
		{"flat", "root", "scatter", 13, 2, 2, []edge{{true, 0, -203}, {true, 1, -203}, {true, 3, -203}, {true, 4, -203}, {true, 5, -203}, {true, 6, -203}, {true, 7, -203}, {true, 8, -203}, {true, 9, -203}, {true, 10, -203}, {true, 11, -203}, {true, 12, -203}}},
		{"flat", "leaf", "scatter", 13, 0, 2, []edge{{false, 2, -203}}},
		{"flat", "middle", "scatter", 13, 6, 2, []edge{{false, 2, -203}}},
		{"flat", "first", "alltoall", 13, 0, 2, []edge{{true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 6, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {true, 12, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 6, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}, {false, 12, -204}}},
		{"flat", "middle", "alltoall", 13, 6, 2, []edge{{true, 0, -204}, {true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {true, 12, -204}, {false, 0, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}, {false, 12, -204}}},
		{"flat", "last", "alltoall", 13, 12, 2, []edge{{true, 0, -204}, {true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 6, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {false, 0, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 6, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}}},
		{"topo", "root", "barrier", 13, 0, 0, []edge{{false, 1, -100}, {false, 2, -100}, {false, 4, -100}, {false, 7, -100}, {true, 1, -101}, {true, 2, -101}, {true, 4, -101}, {true, 7, -101}}},
		{"topo", "root", "allreduce", 13, 0, 0, []edge{{false, 1, -102}, {false, 2, -102}, {false, 4, -102}, {false, 7, -102}, {true, 1, -103}, {true, 2, -103}, {true, 4, -103}, {true, 7, -103}}},
		{"topo", "root", "reduce", 13, 2, 2, []edge{{false, 3, -201}, {false, 4, -201}, {false, 6, -201}, {false, 9, -201}}},
		{"topo", "root", "bcast", 13, 2, 2, []edge{{true, 3, -200}, {true, 4, -200}, {true, 6, -200}, {true, 9, -200}}},
		{"topo", "root", "gather", 13, 2, 2, []edge{{false, 3, -202}, {false, 4, -202}, {false, 6, -202}, {false, 9, -202}}},
		{"topo", "interior", "barrier", 13, 1, 0, []edge{{false, 3, -100}, {true, 0, -100}, {false, 0, -101}, {true, 3, -101}}},
		{"topo", "interior", "allreduce", 13, 1, 0, []edge{{false, 3, -102}, {true, 0, -102}, {false, 0, -103}, {true, 3, -103}}},
		{"topo", "interior", "reduce", 13, 3, 2, []edge{{false, 5, -201}, {true, 2, -201}}},
		{"topo", "interior", "bcast", 13, 3, 2, []edge{{false, 2, -200}, {true, 5, -200}}},
		{"topo", "interior", "gather", 13, 3, 2, []edge{{false, 5, -202}, {true, 2, -202}}},
		{"topo", "leaf", "barrier", 13, 2, 0, []edge{{true, 0, -100}, {false, 0, -101}}},
		{"topo", "leaf", "allreduce", 13, 2, 0, []edge{{true, 0, -102}, {false, 0, -103}}},
		{"topo", "leaf", "reduce", 13, 0, 2, []edge{{true, 12, -201}}},
		{"topo", "leaf", "bcast", 13, 0, 2, []edge{{false, 12, -200}}},
		{"topo", "leaf", "gather", 13, 0, 2, []edge{{true, 12, -202}}},
		{"topo", "single", "barrier", 1, 0, 0, []edge{}},
		{"topo", "single", "allreduce", 1, 0, 0, []edge{}},
		{"topo", "single", "reduce", 1, 0, 0, []edge{}},
		{"topo", "single", "bcast", 1, 0, 0, []edge{}},
		{"topo", "single", "gather", 1, 0, 0, []edge{}},
		{"topo", "root", "scatter", 13, 2, 2, []edge{{true, 0, -203}, {true, 1, -203}, {true, 3, -203}, {true, 4, -203}, {true, 5, -203}, {true, 6, -203}, {true, 7, -203}, {true, 8, -203}, {true, 9, -203}, {true, 10, -203}, {true, 11, -203}, {true, 12, -203}}},
		{"topo", "leaf", "scatter", 13, 0, 2, []edge{{false, 2, -203}}},
		{"topo", "middle", "scatter", 13, 6, 2, []edge{{false, 2, -203}}},
		{"topo", "first", "alltoall", 13, 0, 2, []edge{{true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 6, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {true, 12, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 6, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}, {false, 12, -204}}},
		{"topo", "middle", "alltoall", 13, 6, 2, []edge{{true, 0, -204}, {true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {true, 12, -204}, {false, 0, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}, {false, 12, -204}}},
		{"topo", "last", "alltoall", 13, 12, 2, []edge{{true, 0, -204}, {true, 1, -204}, {true, 2, -204}, {true, 3, -204}, {true, 4, -204}, {true, 5, -204}, {true, 6, -204}, {true, 7, -204}, {true, 8, -204}, {true, 9, -204}, {true, 10, -204}, {true, 11, -204}, {false, 0, -204}, {false, 1, -204}, {false, 2, -204}, {false, 3, -204}, {false, 4, -204}, {false, 5, -204}, {false, 6, -204}, {false, 7, -204}, {false, 8, -204}, {false, 9, -204}, {false, 10, -204}, {false, 11, -204}}},
	} {
		opts := algos[tc.algo]
		s := collSched{kind: kinds[tc.kind]}
		s.parent, s.children = collFamily(nil, s.kind, tc.rank, tc.size, &opts, tc.root)
		got := []edge{}
		for i := 0; ; i++ {
			a, ok := s.at(i)
			if !ok {
				break
			}
			got = append(got, edge{a.send, a.peer, a.tag})
			// The down phase is exactly the release/result/bcast/scatter
			// tags and an Alltoall's sends.
			wantDown := a.tag == tagBarrierRelease || a.tag == tagReduceResult || a.tag == tagBcast || a.tag == tagScatter
			if a.tag == tagAlltoall {
				wantDown = a.send
			}
			if a.down != wantDown {
				t.Errorf("%s %s %s: action %d (tag %d) has down=%v", tc.algo, tc.where, tc.kind, i, a.tag, a.down)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s %s (rank %d of %d, root %d):\n got %v\nwant %v", tc.algo, tc.where, tc.kind, tc.rank, tc.size, tc.root, got, tc.want)
		}
		if _, ok := s.at(len(got) + 1); ok {
			t.Errorf("%s %s %s: schedule resumes past its end", tc.algo, tc.where, tc.kind)
		}
	}
}
