package main

import "syscall"

// childAttr makes the kernel kill the daemon if this process dies
// without stopping it (a SIGKILL from a driver's timeout), so a run
// can never leave an mmfsd behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
