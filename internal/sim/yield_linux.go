package sim

import "syscall"

// osYield lets another runnable thread have this CPU, if the kernel has
// queued one behind the caller; otherwise it returns at once.
func osYield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
