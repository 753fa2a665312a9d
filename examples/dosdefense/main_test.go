// The race detector makes this run of ten seconds one of a hundred; the
// guard's own race tests cover the code it drives.

//go:build !race

package main

// Example runs the program and pins what it prints: the simulation is
// seeded, so every run prints the same.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// legitimate throughput under spoofed flood (modified-DNS scheme):
	//  attack(r/s)    guarded(r/s)  unguarded(r/s)
	//            0          101865          109890
	//        50000           95185           59890
	//       100000           82532           32000
	//       200000           60378           32000
	//
	// the guard drops spoofed requests before they reach the server, so
	// legitimate throughput holds while the unprotected server collapses.
}
