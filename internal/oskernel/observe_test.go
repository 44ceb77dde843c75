package oskernel

// NumProcesses returns the number of live processes.
func (k *Kernel) NumProcesses() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.procs)
}

// Pid returns the process id.
func (p *Process) Pid() Pid { return p.pid }

// NumThreads returns the number of live kernel threads (excluding the
// implicit initial thread).
func (p *Process) NumThreads() int {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	return len(p.threads)
}

// Tid returns the thread id.
func (t *KThread) Tid() Tid { return t.tid }

// Process returns the owning process.
func (t *KThread) Process() *Process { return t.proc }
