package main

import "syscall"

// childAttr makes the kernel kill a child process (a partitiond, or the
// reference pass) when the benchmark dies, so a killed run leaves nothing
// running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
