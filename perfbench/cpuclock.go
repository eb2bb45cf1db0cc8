package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark is tuned on is a shared virtual machine whose
// CPUs are regularly stolen by other tenants for tens of percent of wall
// time. CPU clocks do not advance while a CPU is stolen, so the throughput
// and the single-threaded service times are taken on them.

// cpuTime returns the CPU time the process has used, user and system, on
// every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadTime returns the calling thread's CPU time. Its caller must be
// locked to its thread (runtime.LockOSThread) for differences to mean
// anything.
func threadTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // fails only on a bad argument
	}
	return time.Duration(ts.Nano())
}
