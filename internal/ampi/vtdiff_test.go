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

func (vtProbe) kind() byte { return '?' }

func (p vtProbe) step(pc *PC, _ *frame) bool {
	p.mark(pc.Rank(), pc.vt)
	return true
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
	sites := numberSites(prog).siteNum
	name := func(p Proc) string {
		switch s := p.(type) {
		case collStartProc:
			return fmt.Sprintf("%s start (site %d)", s.site.name, sites[s.site])
		case collWaitProc:
			return fmt.Sprintf("%s wait (site %d)", s.site.name, sites[s.site])
		}
		return fmt.Sprintf("%T", p)
	}
	return rebuild(prog, func(ps []Proc, re func(Proc) Proc) []Proc {
		var out []Proc
		for _, c := range ps {
			tr.names = append(tr.names, fmt.Sprintf("#%d %s", len(tr.names), name(c)))
			out = append(out, re(c), vtProbe{tr, len(tr.names) - 1})
		}
		return out
	}, gatesTo(w)), tr
}

// atGates rebuilds prog with every Migrate gate a Checkpoint to w.
func atGates(prog Proc, w io.Writer) Proc {
	return rebuild(prog, func(ps []Proc, re func(Proc) Proc) []Proc {
		out := make([]Proc, len(ps))
		for i, c := range ps {
			out[i] = re(c)
		}
		return out
	}, gatesTo(w))
}

// gatesTo returns rebuild's leaf map that turns every Migrate gate into
// a Checkpoint to w, or leaves the leaves as they are when w is nil.
func gatesTo(w io.Writer) func(Proc) Proc {
	return func(p Proc) Proc {
		if _, ok := p.(migrateProc); ok && w != nil {
			return Checkpoint(w)
		}
		return p
	}
}

// rebuild copies prog's tree: each non-empty Seq's children become
// what seq makes of them, given the function that rebuilds one child,
// each For body is rebuilt once per iteration, and each other statement
// becomes leaf's image of it. A Seq shared by several parents stays
// shared.
func rebuild(prog Proc, seq func(ps []Proc, re func(Proc) Proc) []Proc, leaf func(Proc) Proc) Proc {
	done := map[*Proc]Proc{}
	var re func(Proc) Proc
	re = func(p Proc) Proc {
		switch s := p.(type) {
		case seqProc:
			if len(s.ps) == 0 {
				return s
			}
			if q, ok := done[&s.ps[0]]; ok {
				return q
			}
			q := seqProc{seq(s.ps, re)}
			done[&s.ps[0]] = q
			return q
		case forProc:
			bodies := make([]Proc, s.n)
			for i := range bodies {
				bodies[i] = re(s.body(i))
			}
			return For(s.n, func(i int) Proc { return bodies[i] })
		}
		return leaf(p)
	}
	return re(prog)
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
