package ampi

import "io"

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
	j.program = numberSites(rebuild(j.stmts[0].p, func(ps []Proc, re func(Proc) Proc) []Proc {
		out := []Proc{at}
		for _, c := range ps {
			out = append(out, re(c))
		}
		return out
	}, func(p Proc) Proc { return p }))
	return j.depth
}

// CheckpointGates rebuilds the event job j's program, before j starts,
// with every Migrate gate a Checkpoint to w.
func CheckpointGates(j *Job, w io.Writer) {
	j.program = numberSites(atGates(j.stmts[0].p, w))
}
