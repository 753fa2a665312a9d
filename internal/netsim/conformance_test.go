package netsim_test

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
)

// TestConformance runs the cross-backend netapi conformance suite against
// the simulator. Each check executes inside a scheduler proc on a fresh
// single-host network with a tcpsim stack attached (blocking netapi calls
// are only legal on procs), and the scheduler is run until the check
// completes.
func TestConformance(t *testing.T) {
	netapitest.Run(t, netapitest.Backend{
		Name: "netsim",
		Addr: netip.MustParseAddr("10.9.0.1"),
		Run: func(t *testing.T, fn func(env netapi.Env)) {
			sched := vclock.New(1)
			network := netsim.New(sched, time.Millisecond)
			host := network.AddHost("conformance", netip.MustParseAddr("10.9.0.1"))
			tcpsim.Install(host, tcpsim.Config{})
			done := false
			sched.Go("conformance", func() {
				fn(host)
				done = true
			})
			sched.Run(time.Hour)
			if !done {
				t.Error("conformance check never completed; a proc is parked with no wakeup")
			}
		},
	})
}
