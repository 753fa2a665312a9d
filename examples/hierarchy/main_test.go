package main

// Example runs the program and pins what it prints: the simulation is
// seeded, so every run prints the same.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// resolving through the guarded root:
	// www.foo.com      www.foo.com 300 IN A 198.51.100.10            50ms  upstream=4  rootGuardPkts=2
	// mail.foo.com     mail.foo.com 300 IN A 198.51.100.11           10ms  upstream=1  rootGuardPkts=2
	// www.bar.com      FAILED: resolver: upstream failure: rcode REFUSED from zone bar.com
	//
	// root guard: grants=1 verified=1 — the root was consulted exactly once,
	// through the cookie dance; every later query used the cached fabricated NS.
}
