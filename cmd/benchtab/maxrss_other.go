//go:build !unix

package main

// peakRSS has no getrusage to read here.
func peakRSS() (int64, bool) { return 0, false }
