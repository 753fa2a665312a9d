//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSS reports the most memory the process has held resident, in bytes
// (getrusage's ru_maxrss: KiB on Linux and the BSDs, bytes on Darwin).
func peakRSS() (int64, bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true
	}
	return int64(ru.Maxrss) << 10, true
}
