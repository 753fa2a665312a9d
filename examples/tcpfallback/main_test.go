package main

// Example runs the program and pins what it prints: the simulation is
// seeded, so every run prints the same.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// == resolution through TC redirect + TCP proxy ==
	// answer:  www.foo.com 300 IN A 198.51.100.10
	// latency: 30.2ms (3 RTT: redirect + handshake + query)
	//
	// == idle connection killed at the 5xRTT duration cap ==
	// idle connection closed by proxy after 60ms (netapi: endpoint closed)
	//
	// == per-client connection rate limiting ==
	// 10 rapid dials: proxy accepted 4, rate-rejected 8
	//
	// guard: 1 TC redirects; proxy: 1 requests relayed, 1 duration kills
	// SYN cookies kept the listener stateless for every handshake
}
