package experiments

import (
	"testing"
	"time"

	"dnsguard/internal/guard"
	"dnsguard/internal/workload"
)

// TestWorkPerTableIIIPath sends requests one at a time down every Table III
// path through a costed world: NS-name, fabricated-IP and modified, each as
// misses and then as hits, and the TCP redirect. Per completed request the
// guard counts what §IV-D counts, or what the path's Deviation names; and
// when the run is over the meter has charged each of the guard's loops the
// price of what that loop counted, each piece of work once.
func TestWorkPerTableIIIPath(t *testing.T) {
	const n = 5
	// What the guard counts per request, miss then hit.
	ours := map[SchemeLabel][2]guard.Work{
		LabelNSName: {{Read: 3, Written: 3, Checks: 1, Grants: 1, Rewrites: 1},
			{Read: 2, Written: 2, Checks: 1, Rewrites: 1}},
		LabelFabIP: {{Read: 5, Written: 5, Checks: 3, Grants: 1, Rewrites: 1},
			{Read: 2, Written: 2, Checks: 1}},
		LabelTCP: {{Read: 1, Written: 1, TCReplies: 1},
			{Read: 1, Written: 1, TCReplies: 1}},
		LabelModified: {{Read: 3, Written: 3, Checks: 1, Grants: 1, Rewrites: 1},
			{Read: 2, Written: 2, Checks: 1, Rewrites: 1}},
	}
	for _, label := range allSchemes {
		w, err := worldFor(label, WorldConfig{RL1Unlimited: true, ProxyCostSegments: 10})
		if err != nil {
			t.Fatal(err)
		}
		client, err := workload.NewClient(workload.ClientConfig{
			Env: w.LRSHost, Kind: label.clientKind(), Mode: workload.ModeHit,
			Target: w.Public, QName: qname, Wait: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := func() guard.Work {
			a, b := w.Guard.Work(0)
			return guard.Work{Read: a.Read + b.Read, Written: a.Written + b.Written, Checks: a.Checks + b.Checks,
				Grants: a.Grants + b.Grants, TCReplies: a.TCReplies + b.TCReplies, Rewrites: a.Rewrites + b.Rewrites}
		}
		var at [3]guard.Work // before the misses, after them, after the hits
		errCh := make(chan error, 1)
		w.Sched.Go("work", func() {
			for mode := 0; mode < 2; mode++ {
				for i := 0; i < n; i++ {
					if mode == 0 {
						client.Forget()
					}
					if _, err := client.RunOnce(); err != nil {
						errCh <- err
						return
					}
				}
				at[mode+1] = total()
			}
			errCh <- nil
		})
		w.Sched.Run(time.Minute)
		if err := <-errCh; err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		for mode, what := range []string{"miss", "hit"} {
			a, b := at[mode], at[mode+1]
			got := guard.Work{Read: (b.Read - a.Read) / n, Written: (b.Written - a.Written) / n,
				Checks: (b.Checks - a.Checks) / n, Grants: (b.Grants - a.Grants) / n,
				TCReplies: (b.TCReplies - a.TCReplies) / n, Rewrites: (b.Rewrites - a.Rewrites) / n}
			want := ours[label][mode]
			if got != want || b.Read-a.Read != n*want.Read {
				t.Errorf("%s %s: the guard counted %+v per request over %d, want %+v", label, what, got, n, want)
			}
			p := paperWork[label][mode]
			same := p.Datagrams == int(want.Read+want.Written) && p.Checks == int(want.Checks) && p.Grants == int(want.Grants)
			if same == (p.Deviation != "") {
				t.Errorf("%s %s: §IV-D counts %d datagrams, %d checks, %d grants, the guard %+v, and the deviation named is %q",
					label, what, p.Datagrams, p.Checks, p.Grants, want, p.Deviation)
			}
		}

		c := w.Costs.Guard
		price := func(k guard.Work) time.Duration {
			return time.Duration(k.Read+k.Written)*c.PacketOp + time.Duration(k.Checks)*c.CookieCheck +
				time.Duration(k.Grants)*c.CookieGrant + time.Duration(k.TCReplies)*c.TCReply + time.Duration(k.Rewrites)*c.Rewrite
		}
		gotW, gotU := w.Meter.Charged()
		worker, upstream := w.Guard.Work(0)
		if wantW, wantU := price(worker), price(upstream); gotW != wantW || gotU != wantU || wantW == 0 {
			t.Errorf("%s: the meter charged the worker %v and the upstream loop %v; their counts cost %v and %v",
				label, gotW, gotU, wantW, wantU)
		}
		// Nothing else charges the guard host, but on the TCP path the proxy.
		if busy := w.GuardHost.CPU().BusyTime(); busy != gotW+gotU && label != LabelTCP {
			t.Errorf("%s: the guard host's CPU was busy %v, the meter charged %v", label, busy, gotW+gotU)
		}
	}
}
