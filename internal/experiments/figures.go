package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netsim"
	"dnsguard/internal/workload"
)

// Figure5Point is one x-position of Figures 5(a) and 5(b): a BIND ANS under
// a spoofed flood, with the guard enabled or disabled.
type Figure5Point struct {
	AttackRate    float64 // req/s
	ThroughputOn  float64 // legitimate req/s with the guard
	ThroughputOff float64 // legitimate req/s without the guard
	CPUOn         float64 // ANS CPU utilization with the guard
	CPUOff        float64 // ANS CPU utilization without the guard
}

// Figure5Options tunes the sweep.
type Figure5Options struct {
	AttackRates []float64
	Warmup      time.Duration
	Window      time.Duration
}

func (o *Figure5Options) fill() {
	if len(o.AttackRates) == 0 {
		for r := 0.0; r <= 16000; r += 2000 {
			o.AttackRates = append(o.AttackRates, r)
		}
	}
	if o.Warmup <= 0 {
		o.Warmup = 2 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 4 * time.Second
	}
}

// Figure5 reproduces §IV-C: throughput of legitimate requests and ANS CPU
// utilization for a BIND 9 server under attack, with the DNS guard on
// (activation threshold at the ANS capacity) and off. Two legitimate LRSs
// send 1K req/s each; the first uses UDP cookies, the second is redirected
// to TCP (capped by its own 2 ms/request TCP path); BIND-like clients wait
// 2 s on loss, which is what collapses the unprotected server.
func Figure5(opts Figure5Options) ([]Figure5Point, error) {
	opts.fill()
	points := make([]Figure5Point, 0, len(opts.AttackRates))
	for _, rate := range opts.AttackRates {
		p := Figure5Point{AttackRate: rate}
		for _, guardOn := range []bool{true, false} {
			tput, cpu, err := figure5Cell(rate, guardOn, opts)
			if err != nil {
				return nil, fmt.Errorf("figure 5 rate=%v on=%v: %w", rate, guardOn, err)
			}
			if guardOn {
				p.ThroughputOn, p.CPUOn = tput, cpu
			} else {
				p.ThroughputOff, p.CPUOff = tput, cpu
			}
		}
		points = append(points, p)
	}
	return points, nil
}

func figure5Cell(attackRate float64, guardOn bool, opts Figure5Options) (float64, float64, error) {
	w, err := NewWorld(WorldConfig{
		UseBIND:           true,
		GuardOff:          !guardOn,
		Scheme:            guard.SchemeDNS,
		Threshold:         14000, // the ANS's measured capacity (§IV-C)
		WithProxy:         guardOn,
		ProxyMaxDuration:  time.Second,
		RL1Generous:       true,
		TCPClientPrefixes: []netip.Prefix{netip.MustParsePrefix("10.0.1.53/32")},
	})
	if err != nil {
		return 0, 0, err
	}
	defer w.Sched.Close() // a parked proc would keep the world alive
	// Two legitimate LRSs at 1K req/s each, as 8 paced lanes apiece so one
	// stalled lane does not zero the whole LRS.
	const lanes = 8
	clients := make([]*workload.Client, 0, 2*lanes)
	mk := func(env *netsim.Host, kind workload.ClientKind) error {
		for i := 0; i < lanes; i++ {
			c, _, err := workload.MeterClient(workload.ClientConfig{
				Env:      env,
				Kind:     kind,
				Mode:     workload.ModeHit,
				Target:   w.Public,
				QName:    qname,
				Wait:     2 * time.Second, // BIND's retransmission timer
				Interval: lanes * time.Millisecond,
			}, w.Costs.Server)
			if err != nil {
				return err
			}
			clients = append(clients, c)
			c.Start()
		}
		return nil
	}
	if err := mk(w.LRSHost, workload.KindNSName); err != nil {
		return 0, 0, err
	}
	if err := mk(w.LRS2Host, workload.KindTCP); err != nil {
		return 0, 0, err
	}
	if attackRate > 0 {
		atk, err := workload.NewAttacker(workload.AttackerConfig{
			Host:   w.AttackHost,
			Target: w.Public,
			Rate:   attackRate,
			Kind:   workload.AttackPlain,
			QName:  qname,
		})
		if err != nil {
			return 0, 0, err
		}
		atk.Start()
	}
	completed := func() uint64 {
		var sum uint64
		for _, c := range clients {
			sum += c.Stats.Completed
		}
		return sum
	}
	meter := netsim.NewUtilizationMeter(w.ANSHost.CPU())
	w.Sched.Run(opts.Warmup)
	meter.Sample()
	tput := w.MeasureRate(opts.Warmup, opts.Warmup+opts.Window, completed)
	return tput, meter.Sample(), nil
}

// Figure6Point is one x-position of Figures 6(a) and 6(b): the guard itself
// under a spoofed flood while a legitimate LRS saturates the ANS simulator.
type Figure6Point struct {
	AttackRate    float64
	ThroughputOn  float64
	ThroughputOff float64
	CPUOn         float64 // guard CPU utilization (on-world)
	CPUOff        float64 // guard CPU when spoof detection is off: 0 (no guard)
	// DroppedOn counts requests the guard rejected over the measurement
	// window (forged cookies + rate-limited), on-world only.
	DroppedOn uint64
}

// Figure6Options tunes the sweep.
type Figure6Options struct {
	AttackRates []float64
	Clients     int
	Warmup      time.Duration
	Window      time.Duration
}

func (o *Figure6Options) fill() {
	if len(o.AttackRates) == 0 {
		for r := 0.0; r <= 250000; r += 25000 {
			o.AttackRates = append(o.AttackRates, r)
		}
	}
	if o.Clients <= 0 {
		o.Clients = 192
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 700 * time.Millisecond
	}
}

// Figure6 reproduces §IV-E: a legitimate LRS (holding a valid cookie,
// modified-DNS scheme) saturates the ANS simulator while an attacker floods
// spoofed requests with forged cookies at increasing rates.
func Figure6(opts Figure6Options) ([]Figure6Point, error) {
	opts.fill()
	points := make([]Figure6Point, 0, len(opts.AttackRates))
	for _, rate := range opts.AttackRates {
		p := Figure6Point{AttackRate: rate}
		for _, guardOn := range []bool{true, false} {
			tput, cpu, dropped, err := figure6Cell(rate, guardOn, opts)
			if err != nil {
				return nil, fmt.Errorf("figure 6 rate=%v on=%v: %w", rate, guardOn, err)
			}
			if guardOn {
				p.ThroughputOn, p.CPUOn, p.DroppedOn = tput, cpu, dropped
			} else {
				p.ThroughputOff, p.CPUOff = tput, cpu
			}
		}
		points = append(points, p)
	}
	return points, nil
}

func figure6Cell(attackRate float64, guardOn bool, opts Figure6Options) (float64, float64, uint64, error) {
	w, err := NewWorld(WorldConfig{
		GuardOff:     !guardOn,
		Scheme:       guard.SchemeDNS,
		RL1Unlimited: true,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.Sched.Close() // a parked proc would keep the world alive
	kind := workload.KindModified
	if !guardOn {
		kind = workload.KindPlain
	}
	clients := make([]*workload.Client, opts.Clients)
	for i := range clients {
		c, err := workload.NewClient(workload.ClientConfig{
			Env:    w.LRSHost,
			Kind:   kind,
			Mode:   workload.ModeHit,
			Target: w.Public,
			QName:  qname,
			Wait:   10 * time.Millisecond,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		clients[i] = c
		c.Start()
	}
	if attackRate > 0 {
		atkKind := workload.AttackBadCookie
		if !guardOn {
			atkKind = workload.AttackPlain
		}
		atk, err := workload.NewAttacker(workload.AttackerConfig{
			Host:   w.AttackHost,
			Target: w.Public,
			Rate:   attackRate,
			Kind:   atkKind,
			QName:  qname,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		atk.Start()
	}
	completed := func() uint64 {
		var sum uint64
		for _, c := range clients {
			sum += c.Stats.Completed
		}
		return sum
	}
	var cpuHost *netsim.Host
	if guardOn {
		cpuHost = w.GuardHost
	} else {
		cpuHost = w.ANSHost
	}
	var reg *metrics.Registry
	if guardOn {
		reg = metrics.NewRegistry()
		w.Guard.MetricsInto(reg)
	}
	meter := netsim.NewUtilizationMeter(cpuHost.CPU())
	w.Sched.Run(opts.Warmup)
	meter.Sample()
	var s0 []metrics.Sample
	if reg != nil {
		s0 = reg.Snapshot()
	}
	tput := w.MeasureRate(opts.Warmup, opts.Warmup+opts.Window, completed)
	cpu := meter.Sample()
	var dropped uint64
	if reg != nil {
		d := metrics.Delta(s0, reg.Snapshot())
		dropped = deltaUint(d, "guard_remote_cookie_invalid") +
			deltaUint(d, "guard_remote_rl1_dropped") +
			deltaUint(d, "guard_remote_rl2_dropped")
	}
	if !guardOn {
		cpu = 0 // Figure 6(b) plots the guard machine, idle when disabled
	}
	return tput, cpu, dropped, nil
}

// Figure7aPoint is one x-position of Figure 7(a): proxy throughput vs
// concurrent TCP requests.
type Figure7aPoint struct {
	Concurrency int
	Throughput  float64
}

// Figure7aOptions tunes the sweep.
type Figure7aOptions struct {
	Concurrency []int
	Warmup      time.Duration
	Window      time.Duration
}

func (o *Figure7aOptions) fill() {
	if len(o.Concurrency) == 0 {
		o.Concurrency = []int{1, 3, 10, 20, 50, 100, 300, 1000, 3000, 6000}
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 700 * time.Millisecond
	}
}

// Figure7a reproduces the kernel TCP proxy's throughput under varying
// numbers of concurrent TCP requests (LAN RTT 0.4 ms; clients instructed to
// use TCP directly).
func Figure7a(opts Figure7aOptions) ([]Figure7aPoint, error) {
	opts.fill()
	points := make([]Figure7aPoint, 0, len(opts.Concurrency))
	for _, n := range opts.Concurrency {
		tput, err := figure7Cell(n, 0, opts.Warmup, opts.Window)
		if err != nil {
			return nil, fmt.Errorf("figure 7a n=%d: %w", n, err)
		}
		points = append(points, Figure7aPoint{Concurrency: n, Throughput: tput})
	}
	return points, nil
}

// Figure7bPoint is one x-position of Figure 7(b): proxy throughput under a
// UDP flood, at 50 concurrent TCP requests.
type Figure7bPoint struct {
	AttackRate float64
	Throughput float64
}

// Figure7bOptions tunes the sweep.
type Figure7bOptions struct {
	AttackRates []float64
	Warmup      time.Duration
	Window      time.Duration
}

// figure7bConcurrency is the TCP requests in flight under Figure 7(b)'s flood.
const figure7bConcurrency = 50

func (o *Figure7bOptions) fill() {
	if len(o.AttackRates) == 0 {
		for r := 0.0; r <= 250000; r += 25000 {
			o.AttackRates = append(o.AttackRates, r)
		}
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 700 * time.Millisecond
	}
}

// Figure7b reproduces the proxy's throughput as a UDP flood consumes the
// guard's CPU (every flood packet is answered with a truncation redirect —
// there is no cheaper way to talk back to a possibly-legitimate requester).
func Figure7b(opts Figure7bOptions) ([]Figure7bPoint, error) {
	opts.fill()
	points := make([]Figure7bPoint, 0, len(opts.AttackRates))
	for _, rate := range opts.AttackRates {
		tput, err := figure7Cell(figure7bConcurrency, rate, opts.Warmup, opts.Window)
		if err != nil {
			return nil, fmt.Errorf("figure 7b rate=%v: %w", rate, err)
		}
		points = append(points, Figure7bPoint{AttackRate: rate, Throughput: tput})
	}
	return points, nil
}

func figure7Cell(concurrency int, attackRate float64, warmup, window time.Duration) (float64, error) {
	w, err := NewWorld(WorldConfig{
		Scheme:            guard.SchemeTCP,
		WithProxy:         true,
		ProxyMaxDuration:  time.Hour,
		ProxyCostSegments: 10,
		RL1Unlimited:      true,
	})
	if err != nil {
		return 0, err
	}
	defer w.Sched.Close() // a parked proc would keep the world alive
	clients := make([]*workload.Client, concurrency)
	for i := range clients {
		c, err := workload.NewClient(workload.ClientConfig{
			Env:  w.LRSHost,
			Kind: workload.KindTCP,
			Mode: workload.ModeHit,
			// The paper's Figure 7 client keeps N connections in flight
			// and waits for each to complete (no 10 ms retry churn).
			Wait:      5 * time.Second,
			Target:    w.Public,
			QName:     qname,
			DirectTCP: true,
		})
		if err != nil {
			return 0, err
		}
		clients[i] = c
		c.Start()
	}
	if attackRate > 0 {
		atk, err := workload.NewAttacker(workload.AttackerConfig{
			Host:   w.AttackHost,
			Target: w.Public,
			Rate:   attackRate,
			Kind:   workload.AttackPlain,
			QName:  qname,
		})
		if err != nil {
			return 0, err
		}
		atk.Start()
	}
	completed := func() uint64 {
		var sum uint64
		for _, c := range clients {
			sum += c.Stats.Completed
		}
		return sum
	}
	return w.MeasureRate(warmup, warmup+window, completed), nil
}
