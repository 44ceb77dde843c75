package npb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"migflow/internal/loadbalance"
)

func TestClassByName(t *testing.T) {
	a, err := ClassByName("A")
	if err != nil || a.NumZones() != 16 {
		t.Errorf("class A: %+v, %v", a, err)
	}
	b, err := ClassByName("B")
	if err != nil || b.NumZones() != 64 {
		t.Errorf("class B: %+v, %v", b, err)
	}
	if _, err := ClassByName("Z"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestZoneSizesGrading(t *testing.T) {
	for _, c := range []Class{ClassA, ClassB} {
		sizes := c.ZoneSizes()
		if len(sizes) != c.NumZones() {
			t.Fatalf("%s: %d sizes", c.Name, len(sizes))
		}
		min, max, sum := math.Inf(1), 0.0, 0.0
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
			sum += s
		}
		// The BT-MZ grading: largest/smallest ≈ 20.
		if r := max / min; math.Abs(r-c.Ratio) > 0.5 {
			t.Errorf("%s: size ratio = %g, want ≈ %g", c.Name, r, c.Ratio)
		}
		if math.Abs(sum-c.Points)/c.Points > 1e-9 {
			t.Errorf("%s: sizes sum to %g, want %g", c.Name, sum, c.Points)
		}
	}
}

func TestAssignZones(t *testing.T) {
	sizes := ClassA.ZoneSizes()
	asg := AssignZones(sizes, 8)
	if len(asg) != 8 {
		t.Fatalf("ranks = %d", len(asg))
	}
	seen := map[int]bool{}
	loads := make([]float64, 8)
	for r, zs := range asg {
		for _, z := range zs {
			if seen[z] {
				t.Errorf("zone %d assigned twice", z)
			}
			seen[z] = true
			loads[r] += sizes[z]
		}
	}
	if len(seen) != 16 {
		t.Errorf("assigned %d zones", len(seen))
	}
	// Greedy packing keeps per-rank loads reasonably even when ranks
	// hold multiple zones.
	if ib := loadbalance.Imbalance(loads); ib > 2.0 {
		t.Errorf("greedy zone assignment imbalance = %g", ib)
	}
	// One-zone-per-rank granularity cannot be balanced: rank loads
	// then vary by the zone-size ratio.
	asg = AssignZones(sizes, 16)
	loads = make([]float64, 16)
	for r, zs := range asg {
		if len(zs) != 1 {
			t.Errorf("rank %d owns %d zones, want 1", r, len(zs))
		}
		for _, z := range zs {
			loads[r] += sizes[z]
		}
	}
	if ib := loadbalance.Imbalance(loads); ib < 2 {
		t.Errorf("one-zone ranks should be imbalanced, got %g", ib)
	}
}

// scanAssignZones is the seed AssignZones: the same size-descending
// order, the least-loaded rank found by an O(ranks) first-strictly-
// smaller scan per zone. Kept as the oracle AssignZones must match
// exactly, list order included.
func scanAssignZones(sizes []float64, nranks int) [][]int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if sizes[idx[a]] != sizes[idx[b]] {
			return sizes[idx[a]] > sizes[idx[b]]
		}
		return idx[a] < idx[b]
	})
	loads := make([]float64, nranks)
	out := make([][]int, nranks)
	for _, z := range idx {
		best := 0
		for r := 1; r < nranks; r++ {
			if loads[r] < loads[best] {
				best = r
			}
		}
		loads[best] += sizes[z]
		out[best] = append(out[best], z)
	}
	return out
}

// TestAssignZonesMatchesScan: the heap greedy reproduces the scan's
// assignment exactly on every Figure 12 case, on the one-zone-per-rank
// and several-zones-per-rank study shapes, at the bench's 32k-zone
// scale (graded: runs of equal sizes along each anti-diagonal;
// equal-size: every comparison a tie), and on random size multisets
// dense with ties.
func TestAssignZonesMatchesScan(t *testing.T) {
	check := func(name string, sizes []float64, nranks int) {
		t.Helper()
		if got, want := AssignZones(sizes, nranks), scanAssignZones(sizes, nranks); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d zones on %d ranks: heap assignment differs from the scan", name, len(sizes), nranks)
		}
	}
	for _, p := range Cases(1, nil) {
		check(p.Label(), p.Class.ZoneSizes(), p.NProcs)
	}
	z4k := ClassZ4K.ZoneSizes()
	check("Z4K", z4k, 4096)
	check("Z4K", z4k, 1000)
	check("graded-32k", GradedClass("Z32K", 256, 128, 1<<25, 20, 50).ZoneSizes(), 8192)
	check("equal-32k", GradedClass("E32K", 256, 128, 1<<25, 1, 50).ZoneSizes(), 4096)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		sizes := make([]float64, 1+rng.Intn(300))
		for z := range sizes {
			sizes[z] = float64(1 + rng.Intn(8)) // few distinct values: mostly ties
			if rng.Intn(4) == 0 {
				sizes[z] += rng.Float64()
			}
		}
		check(fmt.Sprintf("random-%d", i), sizes, 1+rng.Intn(len(sizes)))
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Params{Class: ClassA, NProcs: 0, NPEs: 1}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(Params{Class: ClassA, NProcs: 64, NPEs: 4}); err == nil {
		t.Error("more ranks than zones accepted")
	}
}

func TestLabel(t *testing.T) {
	p := Params{Class: ClassA, NProcs: 8, NPEs: 4}
	if p.Label() != "A.8,4PE" {
		t.Errorf("Label = %q", p.Label())
	}
}

// TestLBImprovesA84 is Figure 12's first bar pair: A.8,4PE with and
// without thread-migration load balancing.
func TestLBImprovesA84(t *testing.T) {
	base := Params{Class: ClassA, NProcs: 8, NPEs: 4, Steps: 6}
	noLB, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withParams := base
	withParams.LB = loadbalance.GreedyLB{}
	withLB, err := Run(withParams)
	if err != nil {
		t.Fatal(err)
	}
	if !(withLB.TimeNs < noLB.TimeNs) {
		t.Errorf("LB did not help: %g → %g", noLB.TimeNs, withLB.TimeNs)
	}
	if withLB.MovedRanks == 0 || withLB.Migrations == 0 {
		t.Errorf("no migrations: moved=%d migs=%d", withLB.MovedRanks, withLB.Migrations)
	}
	if noLB.Migrations != 0 {
		t.Errorf("baseline migrated %d times", noLB.Migrations)
	}
	if !(withLB.Imbalance < noLB.Imbalance) {
		t.Errorf("imbalance not reduced: %g → %g", noLB.Imbalance, withLB.Imbalance)
	}
}

// TestStealWithLB: the wall-clock steal driver must service the
// MPI_Migrate gate too — a driver that only pumps the machine leaves
// every rank parked there forever — and with the solve sliced, idle PEs
// must actually steal ranks between the slices.
func TestStealWithLB(t *testing.T) {
	res, err := Run(Params{
		Class: ClassB, NProcs: 32, NPEs: 8, Steps: 2,
		Steal: true, WorkChunks: 4, LB: loadbalance.GreedyLB{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedRanks == 0 {
		t.Error("the LB gate moved no ranks")
	}
	if res.Steals.Moved == 0 {
		t.Errorf("no rank stolen with a 4-slice solve: %+v", res.Steals)
	}
}

// TestClassBConvergence is Figure 12's headline observation: "for all
// three class B tests on 8 processors ... the execution times after
// load balancing are about the same, while there is a dramatic
// variation in execution times before load balancing."
func TestClassBConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var with, without []float64
	for _, nprocs := range []int{16, 32, 64} {
		// Enough steps that the single pre-LB measurement step
		// amortizes, as in the full-length benchmark.
		p := Params{Class: ClassB, NProcs: nprocs, NPEs: 8, Steps: 20}
		r0, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		p.LB = loadbalance.GreedyLB{}
		r1, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		without = append(without, r0.TimeNs)
		with = append(with, r1.TimeNs)
	}
	spread := func(v []float64) float64 {
		min, max := v[0], v[0]
		for _, x := range v {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return max / min
	}
	if s := spread(with); s > 1.25 {
		t.Errorf("post-LB times not converged: spread %.2f (%v)", s, with)
	}
	if s := spread(without); s < 1.3 {
		t.Errorf("pre-LB times show no dramatic variation: spread %.2f (%v)", s, without)
	}
	for i := range with {
		if !(with[i] < without[i]) {
			t.Errorf("case %d: LB did not help (%g vs %g)", i, with[i], without[i])
		}
	}
}

// TestBTMZMostImbalanced pins the paper's benchmark choice: "Among
// these tests, BT-MZ creates the most dramatic load imbalance" —
// SP-MZ and LU-MZ partition into equal zones and barely benefit from
// LB.
func TestBTMZMostImbalanced(t *testing.T) {
	imb := func(c Class) float64 {
		r, err := Run(Params{Class: c, NProcs: 8, NPEs: 4, Steps: 4})
		if err != nil {
			t.Fatal(err)
		}
		return r.Imbalance
	}
	bt, sp, lu := imb(ClassA), imb(SPClassA), imb(LUClassA)
	if !(bt > sp && bt > lu) {
		t.Errorf("BT-MZ imbalance %g not the worst (SP %g, LU %g)", bt, sp, lu)
	}
	if sp > 1.05 || lu > 1.05 {
		t.Errorf("equal-zone benchmarks should be balanced: SP %g LU %g", sp, lu)
	}
}

func TestZoneNeighbors(t *testing.T) {
	c := ClassA // 4x4
	// Corner zone 0: right and up only.
	if got := fmt.Sprint(c.ZoneNeighbors(0)); got != "[1 4]" {
		t.Errorf("corner neighbors = %s", got)
	}
	// Interior zone 5 (x=1,y=1): all four.
	if got := len(c.ZoneNeighbors(5)); got != 4 {
		t.Errorf("interior neighbors = %d", got)
	}
	// Edge zone 3 (x=3,y=0): left and up.
	if got := fmt.Sprint(c.ZoneNeighbors(3)); got != "[2 7]" {
		t.Errorf("edge neighbors = %s", got)
	}
	// Adjacency is symmetric.
	for z := 0; z < c.NumZones(); z++ {
		for _, nb := range c.ZoneNeighbors(z) {
			found := false
			for _, back := range c.ZoneNeighbors(nb) {
				if back == z {
					found = true
				}
			}
			if !found {
				t.Errorf("adjacency not symmetric: %d→%d", z, nb)
			}
		}
	}
}

func TestClassByNameAll(t *testing.T) {
	for _, name := range []string{"A", "B", "SP-A", "LU-A"} {
		c, err := ClassByName(name)
		if err != nil || c.Name != name {
			t.Errorf("ClassByName(%q) = %v/%v", name, c.Name, err)
		}
	}
}

func TestCasesList(t *testing.T) {
	cs := Cases(5, nil)
	if len(cs) != 5 {
		t.Fatalf("cases = %d", len(cs))
	}
	if cs[0].Label() != "A.8,4PE" || cs[4].Label() != "B.64,8PE" {
		t.Errorf("case labels: %s ... %s", cs[0].Label(), cs[4].Label())
	}
}
