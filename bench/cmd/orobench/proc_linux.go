package main

import "syscall"

// childAttr makes a workload child die with its parent, so a killed
// orobench never leaves a workload running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
