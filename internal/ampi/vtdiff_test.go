package ampi

import (
	"fmt"
	"io"
	"math"
)

// vtTrace is where a program rebuilt by instrument records, per rank,
// its virtual time after each statement of every Seq, so that vtdiff
// can name the first statement after which two runs' times part.
type vtTrace struct {
	names []string   // statement number → what it is
	marks [][]vtMark // per rank, in the order the rank passed them
}

// vtMark is one rank passing statement stmt at virtual time vt.
type vtMark struct {
	stmt int
	vt   float64
}

// vtProbe records the rank's time after statement n. The spec
// interprets it with its own clock.
type vtProbe struct {
	tr *vtTrace
	n  int
}

func (p vtProbe) step(pc *PC, _ *frame) (Proc, bool) {
	p.mark(pc.Rank(), pc.vt)
	return nil, true
}

func (p vtProbe) mark(rank int, vt float64) {
	p.tr.marks[rank] = append(p.tr.marks[rank], vtMark{p.n, vt})
}

// instrument rebuilds prog for size ranks with a probe after every
// statement of every Seq, each numbered once in the tree (a Seq shared
// by several parents stays shared), and every Migrate gate turned into
// a Checkpoint to w when w is not nil. A probe is a leaf beside its
// Seq's other children, so the program's depth and its collective sites
// stay as they were.
func instrument(prog Proc, size int, w io.Writer) (Proc, *vtTrace) {
	tr := &vtTrace{marks: make([][]vtMark, size)}
	_, sites, _, _, _ := numberSites(prog)
	name := func(p Proc) string {
		switch s := p.(type) {
		case collStartProc:
			return fmt.Sprintf("%s start (site %d)", s.site.name, sites[s.site])
		case collWaitProc:
			return fmt.Sprintf("%s wait (site %d)", s.site.name, sites[s.site])
		}
		return fmt.Sprintf("%T", p)
	}
	done := map[*Proc]Proc{}
	var rebuild func(Proc) Proc
	rebuild = func(p Proc) Proc {
		switch s := p.(type) {
		case seqProc:
			if len(s.ps) == 0 {
				return s
			}
			if q, ok := done[&s.ps[0]]; ok {
				return q
			}
			var ps []Proc
			for _, c := range s.ps {
				tr.names = append(tr.names, fmt.Sprintf("#%d %s", len(tr.names), name(c)))
				ps = append(ps, rebuild(c), vtProbe{tr, len(tr.names) - 1})
			}
			done[&s.ps[0]] = seqProc{ps}
			return seqProc{ps}
		case forProc:
			bodies := make([]Proc, s.n)
			for i := range bodies {
				bodies[i] = rebuild(s.body(i))
			}
			return For(s.n, func(i int) Proc { return bodies[i] })
		case migrateProc:
			if w != nil {
				return Checkpoint(w)
			}
		}
		return p
	}
	return rebuild(prog), tr
}

// vtdiff compares two runs' traces rank by rank and returns "" when
// they agree, bit for bit, or names the first rank, and the statement
// after which, its virtual time differs. got may be a run restored
// from a checkpoint, which passes only the tail of want's statements,
// so each rank's traces are lined up at their ends.
func vtdiff(want, got *vtTrace) string {
	for r, g := range got.marks {
		w := want.marks[r]
		if len(g) > len(w) {
			return fmt.Sprintf("rank %d passed %d statements, want %d", r, len(g), len(w))
		}
		w = w[len(w)-len(g):]
		for i := range g {
			if g[i].stmt != w[i].stmt || math.Float64bits(g[i].vt) != math.Float64bits(w[i].vt) {
				return fmt.Sprintf("rank %d: VT %v after statement %s, want %v after %s",
					r, g[i].vt, got.names[g[i].stmt], w[i].vt, want.names[w[i].stmt])
			}
		}
	}
	return ""
}
