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
					p, children := collFamily(collBarrier, i, n, &opts, root)
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
					gotP, _ := collFamily(collBarrier, c, n, &opts, root)
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
		arity := arity
		t.Run(fmt.Sprintf("k%d", arity), func(t *testing.T) {
			m := newMachine(t, 3, nil)
			const ranks, rounds = 9, 4
			var mu sync.Mutex
			phase := make([]int, ranks)
			j, err := NewJob(m, ranks, Options{Collectives: CollTree, TreeArity: arity}, func(r *Rank) {
				for round := 0; round < rounds; round++ {
					mu.Lock()
					phase[r.Rank()] = round
					mu.Unlock()
					if err := r.Barrier(); err != nil {
						t.Errorf("rank %d: %v", r.Rank(), err)
						return
					}
					// After the barrier no rank may still be in an
					// earlier round.
					mu.Lock()
					for rk, ph := range phase {
						if ph < round {
							t.Errorf("arity %d round %d: rank %d still at %d", arity, round, rk, ph)
						}
					}
					mu.Unlock()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			j.Run()
			if !j.Done() {
				t.Fatal("job deadlocked")
			}
		})
	}
}

// TestFlatVsTreeResultsAgree runs the full collective set under both
// algorithms — including a non-zero root — and demands identical
// results.
func TestFlatVsTreeResultsAgree(t *testing.T) {
	type outcome struct {
		allred float64
		red    float64
		bcast  []byte
		gather [][]byte
	}
	run := func(algo CollAlgo) []outcome {
		m := newMachine(t, 4, nil)
		const ranks, root = 10, 3
		out := make([]outcome, ranks)
		var mu sync.Mutex
		j, err := NewJob(m, ranks, Options{Collectives: algo, TreeArity: 3}, func(r *Rank) {
			ar, err := r.Allreduce("sum", float64(r.Rank()+1))
			if err != nil {
				t.Errorf("Allreduce: %v", err)
				return
			}
			rd, err := r.Reduce(root, "max", float64(r.Rank()*2))
			if err != nil {
				t.Errorf("Reduce: %v", err)
				return
			}
			var seed []byte
			if r.Rank() == root {
				seed = []byte("tree-vs-flat")
			}
			bc, err := r.Bcast(root, seed)
			if err != nil {
				t.Errorf("Bcast: %v", err)
				return
			}
			ga, err := r.Gather(root, []byte{byte(r.Rank()), byte(r.Rank() * 3)})
			if err != nil {
				t.Errorf("Gather: %v", err)
				return
			}
			mu.Lock()
			out[r.Rank()] = outcome{allred: ar, red: rd, bcast: bc, gather: ga}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		j.Run()
		if !j.Done() {
			t.Fatalf("algo %d: job deadlocked", algo)
		}
		return out
	}
	tree, flat := run(CollTree), run(CollFlat)
	for rk := range tree {
		if tree[rk].allred != flat[rk].allred || tree[rk].allred != 55 {
			t.Errorf("rank %d allreduce: tree %g flat %g want 55", rk, tree[rk].allred, flat[rk].allred)
		}
		if tree[rk].red != flat[rk].red {
			t.Errorf("rank %d reduce: tree %g flat %g", rk, tree[rk].red, flat[rk].red)
		}
		if !bytes.Equal(tree[rk].bcast, flat[rk].bcast) {
			t.Errorf("rank %d bcast: tree %q flat %q", rk, tree[rk].bcast, flat[rk].bcast)
		}
		if (rk == 3) != (tree[rk].gather != nil) {
			t.Errorf("rank %d gather presence wrong", rk)
		}
		for i := range tree[rk].gather {
			if !bytes.Equal(tree[rk].gather[i], flat[rk].gather[i]) {
				t.Errorf("rank %d gather[%d]: tree %v flat %v", rk, i, tree[rk].gather[i], flat[rk].gather[i])
			}
		}
	}
}

// TestTreeBackToBackReduce pins the robustness source-matched edges
// buy: consecutive Reduce epochs cannot steal each other's
// contributions even though no release phase separates them — under
// every topology, the flat star included (its root matches each child
// by rank, never AnySource).
func TestTreeBackToBackReduce(t *testing.T) {
	const ranks, epochs = 6, 5
	for _, algo := range []CollAlgo{CollTree, CollFlat, CollTopoTree} {
		m := newMachine(t, 2, nil)
		var mu sync.Mutex
		got := make([]float64, epochs)
		j, err := NewJob(m, ranks, Options{Collectives: algo, TreeArity: 2}, func(r *Rank) {
			for e := 0; e < epochs; e++ {
				v, err := r.Reduce(0, "sum", float64(r.Rank())+float64(e*100))
				if err != nil {
					t.Errorf("%s epoch %d: %v", algoName(algo), e, err)
					return
				}
				if r.Rank() == 0 {
					mu.Lock()
					got[e] = v
					mu.Unlock()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		j.Run()
		for e := 0; e < epochs; e++ {
			want := float64(0+1+2+3+4+5) + float64(e*100*ranks)
			if got[e] != want {
				t.Errorf("%s epoch %d sum = %g, want %g", algoName(algo), e, got[e], want)
			}
		}
	}
}

// TestUnknownReductionOp is the negative test for the shared combiner:
// every reduction entry point must reject an unknown op.
func TestUnknownReductionOp(t *testing.T) {
	m := newMachine(t, 1, nil)
	var allredErr, redErr error
	j, err := NewJob(m, 2, Options{}, func(r *Rank) {
		if r.Rank() == 0 {
			_, allredErr = r.Allreduce("median", 1)
			_, redErr = r.Reduce(0, "avg", 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Run()
	if allredErr == nil {
		t.Error("Allreduce accepted unknown op")
	}
	if redErr == nil {
		t.Error("Reduce accepted unknown op")
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
// consumes P-1 messages serially — O(P) on its clock — while the tree
// charges O(k·log_k P) per rank. The tree must finish the same
// barriers in substantially less virtual time.
func TestFlatRootSerializes(t *testing.T) {
	const ranks, rounds, ovh = 48, 3, 8000.0
	elapsed := func(algo CollAlgo) float64 {
		m := newMachine(t, 4, nil)
		j, err := NewJob(m, ranks, Options{Collectives: algo, MsgOverheadNs: ovh}, func(r *Rank) {
			for i := 0; i < rounds; i++ {
				if err := r.Barrier(); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		j.Run()
		if !j.Done() {
			t.Fatal("deadlock")
		}
		return m.MaxTime()
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
		s.parent, s.children = collFamily(s.kind, tc.rank, tc.size, &opts, tc.root)
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
