//go:build !linux

package shard

import "syscall"

// workerAttr is the default: only Linux has a parent-death signal.
func workerAttr() *syscall.SysProcAttr { return nil }
