//go:build unix

package main

import (
	"runtime"
	"syscall"
	"time"
)

// processUsage returns the process's user+system CPU time so far and its
// peak resident set in MB, from getrusage(RUSAGE_SELF).
func processUsage() (cpu time.Duration, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	rss := float64(ru.Maxrss) // kilobytes, except on darwin where it is bytes
	if runtime.GOOS == "darwin" {
		rss /= 1024
	}
	return cpu, rss / 1024, nil
}
