package experiments

import (
	"fmt"
	"time"

	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/workload"
)

// SchemeLabel names the four measured columns of Tables II and III.
type SchemeLabel string

// Scheme labels, in the paper's column order.
const (
	LabelNSName   SchemeLabel = "DNS-based/NS-name"
	LabelFabIP    SchemeLabel = "DNS-based/fabricated-NS-IP"
	LabelTCP      SchemeLabel = "TCP-based"
	LabelModified SchemeLabel = "Modified-DNS"
)

var allSchemes = []SchemeLabel{LabelNSName, LabelFabIP, LabelTCP, LabelModified}

func (l SchemeLabel) clientKind() workload.ClientKind {
	switch l {
	case LabelNSName:
		return workload.KindNSName
	case LabelFabIP:
		return workload.KindFabIP
	case LabelTCP:
		return workload.KindTCP
	default:
		return workload.KindModified
	}
}

// worldFor builds the testbed appropriate for one scheme column.
func worldFor(label SchemeLabel, cfg WorldConfig) (*World, error) {
	switch label {
	case LabelNSName:
		cfg.ReferralANS = true // referral answers exercise the NS-name variant
		cfg.Scheme = guard.SchemeDNS
	case LabelFabIP:
		cfg.Scheme = guard.SchemeDNS
	case LabelTCP:
		cfg.Scheme = guard.SchemeTCP
		cfg.WithProxy = true
		if cfg.ProxyMaxDuration == 0 {
			cfg.ProxyMaxDuration = time.Hour
		}
	case LabelModified:
		cfg.Scheme = guard.SchemeDNS // newcomers irrelevant; client speaks cookies
	}
	return NewWorld(cfg)
}

// TableIIRow is one measured latency row.
type TableIIRow struct {
	Scheme SchemeLabel
	Miss   time.Duration
	Hit    time.Duration
	// Paper's measurements (ms) for EXPERIMENTS.md.
	PaperMissMs, PaperHitMs float64
}

var paperTableII = map[SchemeLabel][2]float64{
	LabelNSName:   {21.0, 11.1},
	LabelFabIP:    {32.1, 11.3},
	LabelTCP:      {34.5, 33.7},
	LabelModified: {22.4, 10.8},
}

// TableII reproduces §IV-B: average request latency per scheme at the
// paper's WAN RTT of 10.9 ms, for the first access (cache miss) and
// subsequent accesses (cache hit).
func TableII() ([]TableIIRow, error) {
	rows := make([]TableIIRow, 0, len(allSchemes))
	for _, label := range allSchemes {
		w, err := worldFor(label, WorldConfig{
			OneWayWAN: 5450 * time.Microsecond, // RTT 10.9 ms
			Uncosted:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("table II %s: %w", label, err)
		}
		defer w.Sched.Close() // a parked proc would keep the world alive
		client, err := workload.NewClient(workload.ClientConfig{
			Env:    w.LRSHost,
			Kind:   label.clientKind(),
			Mode:   workload.ModeHit, // manual control via Forget
			Target: w.Public,
			QName:  qname,
			Wait:   5 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		row := TableIIRow{
			Scheme:      label,
			PaperMissMs: paperTableII[label][0],
			PaperHitMs:  paperTableII[label][1],
		}
		errCh := make(chan error, 1)
		w.Sched.Go("tableII", func() {
			miss, err := client.RunOnce()
			if err != nil {
				errCh <- fmt.Errorf("miss: %w", err)
				return
			}
			hit, err := client.RunOnce()
			if err != nil {
				errCh <- fmt.Errorf("hit: %w", err)
				return
			}
			row.Miss, row.Hit = miss, hit
			errCh <- nil
		})
		w.Sched.Run(time.Minute)
		if err := <-errCh; err != nil {
			return nil, fmt.Errorf("table II %s: %w", label, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableIIIRow is one measured throughput row.
type TableIIIRow struct {
	Scheme SchemeLabel
	Miss   float64 // requests/second
	Hit    float64
	// Paper's measurements (req/s) for EXPERIMENTS.md.
	PaperMiss, PaperHit float64
	// Per-cell observability (counter movement + latency percentiles).
	MissDetail, HitDetail CellDetail
}

// CellDetail captures one measurement cell's observability: how the guard's
// counters moved over the measurement window, and the latency percentiles
// the client fleet observed.
type CellDetail struct {
	CookieValid   uint64 // verified requests over the window
	CookieInvalid uint64
	RL1Dropped    uint64
	Forwarded     uint64 // requests relayed to the ANS
	P50, P90, P99 time.Duration
	// Completed is the requests the clients completed over the window, Work
	// the guard's counted work over it (the guard_work_* series), and Paper
	// what §IV-D counts for one request on the cell's path.
	Completed uint64
	Work      guard.Work
	Paper     PaperWork
}

// PaperWork is what §IV-D counts one request on a Table III path costs the
// guard: datagrams through it, cookie checks and cookie grants, none on the
// TCP path, which it prices as proxy segments. Deviation names where this
// guard's counts differ, and why; empty, they match.
type PaperWork struct {
	Datagrams, Checks, Grants int
	Deviation                 string
}

// paperWork is §IV-D's accounting per path, miss then hit.
var paperWork = map[SchemeLabel][2]PaperWork{
	LabelNSName: {{6, 1, 1, ""}, {4, 1, 0, ""}},
	LabelFabIP: {{8, 3, 1, "+2 datagrams, messages 8 and 9: message 7 is always forwarded, see EXPERIMENTS.md"},
		{4, 1, 0, ""}},
	LabelTCP:      {{Deviation: tcpWork}, {Deviation: tcpWork}},
	LabelModified: {{6, 1, 1, ""}, {4, 1, 0, ""}},
}

const tcpWork = "a TCP request is the proxy's, priced per request as segments; the guard counts its UDP query and TC reply"

// deltaUint extracts one series from a metrics.Delta result.
func deltaUint(d []metrics.Sample, name string) uint64 {
	for _, s := range d {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	return 0
}

var paperTableIII = map[SchemeLabel][2]float64{
	LabelNSName:   {84200, 110100},
	LabelFabIP:    {60100, 109700},
	LabelTCP:      {22700, 22700},
	LabelModified: {84300, 110300},
}

// TableIIIOptions tunes the measurement effort (the defaults match
// cmd/benchtab; tests use shorter windows).
type TableIIIOptions struct {
	Clients int
	Warmup  time.Duration
	Window  time.Duration
}

func (o *TableIIIOptions) fill() {
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

// TableIII reproduces §IV-D: guard throughput per scheme with the ANS and
// LRS simulators on the LAN testbed, for cache-miss (cookie caching
// disabled) and cache-hit traffic.
func TableIII(opts TableIIIOptions) ([]TableIIIRow, error) {
	opts.fill()
	rows := make([]TableIIIRow, 0, len(allSchemes))
	for _, label := range allSchemes {
		row := TableIIIRow{
			Scheme:    label,
			PaperMiss: paperTableIII[label][0],
			PaperHit:  paperTableIII[label][1],
		}
		for _, mode := range []workload.ClientMode{workload.ModeMiss, workload.ModeHit} {
			rate, detail, err := tableIIICell(label, mode, opts)
			if err != nil {
				return nil, fmt.Errorf("table III %s/%v: %w", label, mode, err)
			}
			if mode == workload.ModeMiss {
				row.Miss, row.MissDetail = rate, detail
			} else {
				row.Hit, row.HitDetail = rate, detail
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func tableIIICell(label SchemeLabel, mode workload.ClientMode, opts TableIIIOptions) (float64, CellDetail, error) {
	w, err := worldFor(label, WorldConfig{
		ProxyCostSegments: 10,
		RL1Unlimited:      true,
	})
	if err != nil {
		return 0, CellDetail{}, err
	}
	defer w.Sched.Close() // a parked proc would keep the world alive
	reg := metrics.NewRegistry()
	w.Guard.MetricsInto(reg)
	hist := metrics.NewHistogram()
	clients := make([]*workload.Client, opts.Clients)
	n := opts.Clients
	if label == LabelTCP {
		// TCP requests are ~30× heavier; fewer lanes saturate the guard.
		n = 64
	}
	for i := 0; i < n; i++ {
		c, err := workload.NewClient(workload.ClientConfig{
			Env:     w.LRSHost,
			Kind:    label.clientKind(),
			Mode:    mode,
			Target:  w.Public,
			QName:   qname,
			Wait:    10 * time.Millisecond, // the paper's LRS simulator wait
			Latency: hist,
		})
		if err != nil {
			return 0, CellDetail{}, err
		}
		clients[i] = c
		c.Start()
	}
	completed := func() uint64 {
		var sum uint64
		for _, c := range clients {
			if c != nil {
				sum += c.Stats.Completed
			}
		}
		return sum
	}
	// Sample the registry at the same instants MeasureRate samples the
	// completion counter, so the deltas cover exactly the rate window.
	w.RunPhase(opts.Warmup)
	c0 := completed()
	s0 := reg.Snapshot()
	w.RunPhase(opts.Warmup + opts.Window)
	c1 := completed()
	s1 := reg.Snapshot()
	rate := float64(c1-c0) / opts.Window.Seconds()
	d := metrics.Delta(s0, s1)
	detail := CellDetail{
		CookieValid:   deltaUint(d, "guard_remote_cookie_valid"),
		CookieInvalid: deltaUint(d, "guard_remote_cookie_invalid"),
		RL1Dropped:    deltaUint(d, "guard_remote_rl1_dropped"),
		Forwarded:     deltaUint(d, "guard_remote_forwarded_to_ans"),
		P50:           hist.Quantile(0.50),
		P90:           hist.Quantile(0.90),
		P99:           hist.Quantile(0.99),
		Completed:     c1 - c0,
		Work: guard.Work{
			Read:      deltaUint(d, "guard_work_read"),
			Written:   deltaUint(d, "guard_work_written"),
			Checks:    deltaUint(d, "guard_work_checks"),
			Grants:    deltaUint(d, "guard_work_grants"),
			TCReplies: deltaUint(d, "guard_work_tc_replies"),
			Rewrites:  deltaUint(d, "guard_work_rewrites"),
		},
		Paper: paperWork[label][0],
	}
	if mode == workload.ModeHit {
		detail.Paper = paperWork[label][1]
	}
	return rate, detail, nil
}

// TableIRow is one column of the qualitative comparison (Table I), with the
// quantitative entries backed by this reproduction's measurements.
type TableIRow struct {
	Scheme               SchemeLabel
	WorstLatencyRTT      int
	BestLatencyRTT       int
	CookieStorage        string
	CookieRange          string
	TrafficAmplification string
	Deployment           string
}

// TableI returns the scheme-comparison table. The latency RTT counts are
// verified against measurement by the TestTableI… tests.
func TableI() []TableIRow {
	return []TableIRow{
		{LabelNSName, 2, 1, "1 cookie per NS record", "2^32", "< 50% (24 bytes)", "ANS side only"},
		{LabelFabIP, 3, 1, "2 cookies per non-referral record", "2^32 and R_y <= 2^24", "< 50% (24 bytes)", "ANS side only"},
		{LabelTCP, 3, 3, "0", "2^32", "0", "ANS side only"},
		{LabelModified, 2, 1, "1 cookie per ANS", "2^128", "0", "LRS side and ANS side"},
	}
}
