package main

// Example runs the program and pins what it prints: the simulation is
// seeded, so every run prints the same.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// == first resolution (cache miss: the cookie dance) ==
	// answer: www.foo.com 300 IN A 198.51.100.10
	// latency: 30.4ms (3 RTT: fabricated NS, cookie query, cookie-IP query)
	// upstream queries: 3
	//
	// == second resolution, 400s later (answer TTL expired, cookies cached) ==
	// answer: www.foo.com 300 IN A 198.51.100.10
	// latency: 10.2ms (1 RTT: straight to the cookie address)
	// upstream queries: 1
	//
	// == guard statistics ==
	// packets received:   4
	// cookies granted:    1
	// cookies verified:   3
	// spoofed dropped:    0
	// forwarded to ANS:   3
	// ANS saw queries:    3
}
