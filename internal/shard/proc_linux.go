package shard

import "syscall"

// workerAttr has the kernel kill a worker when the process that
// started it dies, so no worker outlives a crashed Run. Workers stay in
// their parent's process group, where a caller that kills the group
// (bench/run.go does) still finds them.
func workerAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
