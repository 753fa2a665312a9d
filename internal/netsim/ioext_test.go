package netsim

import (
	"testing"
	"time"

	"dnsguard/internal/netapi"
)

func TestHostNewQueuePoliciesAndBlocking(t *testing.T) {
	s, n := newNet(time.Millisecond)
	h := n.AddHost("h", addr("10.0.0.1"))
	var env netapi.Env = h
	qe, ok := env.(netapi.QueueEnv)
	if !ok {
		t.Fatal("Host does not implement netapi.QueueEnv")
	}
	q := qe.NewQueue(2)
	if !q.Put("a") || !q.Put("b") {
		t.Fatal("puts under capacity rejected")
	}
	if q.Put("c") {
		t.Fatal("drop-newest: put beyond capacity accepted")
	}

	// Get must park the proc on the virtual clock, not a Go channel.
	var got any
	s.Go("consumer", func() {
		for i := 0; i < 3; i++ {
			v, err := q.Get(netapi.NoTimeout)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = v
		}
	})
	s.Go("late-producer", func() {
		h.Sleep(5 * time.Millisecond)
		q.Put("e")
	})
	s.Run(0)
	if got != "e" {
		t.Fatalf("last item = %v, want e", got)
	}
}
