package converse

// Minimal context switching (§4.3, Figure 10). The paper's point: a
// user-level thread switch entered through a subroutine call need
// only save the callee-saved registers — seven on x86-64 (rdi, rbp,
// rbx, r12-r15) plus the stack pointer — so a correct swap routine is
// ~16 instructions and runs in 16-18 ns on a 2.2 GHz Athlon64.
// Popular swapcontext/setjmp implementations instead save every
// register and often make a sigprocmask *system call*, losing the
// entire advantage of user-level threads.
//
// We reproduce the argument with three swap routines over an explicit
// register file: the minimal callee-saved swap, a save-everything
// swap (the "fear or ignorance" version), and a save-everything swap
// that also pays a simulated signal-mask system call.
// harness.Figure10 measures all three in wall-clock time,
// beside SwitchRoundTrips: the coroutine switch that actually carries
// this package's threads.

// CalleeSavedRegs is the number of registers the x86-64 calling
// convention requires a subroutine to preserve (Figure 10b saves
// exactly these, plus the stack pointer).
const CalleeSavedRegs = 7

// FullRegs approximates the full architectural register file an
// overcautious implementation saves: 16 general-purpose + 16 SSE
// registers (as 2×uint64 each) = 48 words.
const FullRegs = 48

// RegContext is one thread's saved register file. Only the first
// CalleeSavedRegs words (plus SP) participate in a minimal swap.
type RegContext struct {
	Regs [FullRegs]uint64
	SP   uint64
}

// MinimalSwap is Figure 10's swap64: store the old thread's
// callee-saved registers and stack pointer, load the new thread's.
// The register file is an explicit array because Go code cannot name
// machine registers; the *work* — 7 stores, 7 loads, one SP exchange
// — matches the assembly routine.
func MinimalSwap(old, new *RegContext, live *[CalleeSavedRegs]uint64, sp *uint64) {
	for i := 0; i < CalleeSavedRegs; i++ {
		old.Regs[i] = live[i]
	}
	old.SP = *sp
	for i := 0; i < CalleeSavedRegs; i++ {
		live[i] = new.Regs[i]
	}
	*sp = new.SP
}

// FullSwap saves and restores the entire register file — what generic
// swapcontext implementations do "through fear or ignorance".
func FullSwap(old, new *RegContext, live *[FullRegs]uint64, sp *uint64) {
	for i := 0; i < FullRegs; i++ {
		old.Regs[i] = live[i]
	}
	old.SP = *sp
	for i := 0; i < FullRegs; i++ {
		live[i] = new.Regs[i]
	}
	*sp = new.SP
}

// SigmaskSwap is FullSwap plus the sigprocmask system call that
// setjmp/sigsetjmp-based packages issue on every switch. The syscall
// is simulated by the syscallWork function, which models the
// register-save/restore a kernel entry performs ("the kernel could
// just as quickly perform a process switch").
func SigmaskSwap(old, new *RegContext, live *[FullRegs]uint64, sp *uint64, mask *uint64) {
	syscallWork(mask)
	FullSwap(old, new, live, sp)
	syscallWork(mask)
}

// syscallKernelRegs is the register state a syscall entry/exit
// saves and restores (user registers on kernel entry, again on exit).
var syscallKernelRegs [2 * FullRegs]uint64

// syscallWork models one system call's fixed overhead: a full
// register save and restore on the kernel boundary.
//
//go:noinline
func syscallWork(mask *uint64) {
	var frame [FullRegs]uint64
	for i := range frame {
		frame[i] = syscallKernelRegs[i]
	}
	*mask = frame[0] | 1
	for i := range frame {
		syscallKernelRegs[FullRegs+i] = frame[i]
	}
}

// SwitchRoundTrips makes n round trips (2n control transfers) between
// the caller and one coroutine: the switch under every thread of this
// package, bare of scheduler, queue and stack strategy.
func SwitchRoundTrips(n int) {
	var c coroutine
	c.start(func() {
		for i := 0; i < n; i++ {
			c.park(outYield)
		}
	})
	for c.resume() != outExit {
	}
}
