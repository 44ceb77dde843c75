package ampi

// Exports for the external tests (package ampi_test), which can reach
// jobs that packages above ampi build.

// BuildMix and MixLocalPUP are the randomized workload mix of the
// equivalence suites and its Options.LocalPUP.
var (
	BuildMix    = buildMix
	MixLocalPUP = mixLocalPUP
)

// ProbeStacks rebuilds j's program, before j starts, with probe as the
// first statement of every Seq, and returns the depth j now sizes each
// rank's frame stack to. A probe is a leaf beside its Seq's other
// children, so it adds no level: it runs at every depth the program
// runs a Seq's statements at, and sees the stack's length and capacity
// there. A Seq shared by several parents stays shared.
func ProbeStacks(j *Job, probe func(pc *PC, n, c int)) int {
	at := Do(func(pc *PC) { probe(pc, len(pc.stack), cap(pc.stack)) })
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
			ps := []Proc{at}
			for _, c := range s.ps {
				ps = append(ps, rebuild(c))
			}
			done[&s.ps[0]] = seqProc{ps}
			return seqProc{ps}
		case forProc:
			bodies := make([]Proc, s.n)
			for i := range bodies {
				bodies[i] = rebuild(s.body(i))
			}
			return For(s.n, func(i int) Proc { return bodies[i] })
		}
		return p
	}
	j.prog = rebuild(j.prog)
	j.sites, j.siteNum, j.depth = numberSites(j.prog)
	return j.depth
}
