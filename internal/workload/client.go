package workload

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
)

// ClientKind selects which spoof-detection scheme the simulated LRS speaks.
type ClientKind int

// Client kinds.
const (
	// KindPlain sends ordinary queries with no cookie awareness (the
	// baseline / guard-off client, and the guard's newcomer input).
	KindPlain ClientKind = iota + 1
	// KindNSName performs the fabricated-NS-name dance (§III-B.1).
	KindNSName
	// KindFabIP performs the fabricated NS name + IP dance (§III-B.2).
	KindFabIP
	// KindModified performs the explicit cookie exchange (§III-D),
	// playing both LRS and local guard.
	KindModified
	// KindTCP accepts the truncation redirect and queries over TCP
	// (§III-C).
	KindTCP
)

func (k ClientKind) String() string {
	switch k {
	case KindPlain:
		return "plain"
	case KindNSName:
		return "ns-name"
	case KindFabIP:
		return "fabricated-ns-ip"
	case KindModified:
		return "modified-dns"
	case KindTCP:
		return "tcp"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ClientMode selects cache behavior.
type ClientMode int

// Client modes.
const (
	// ModeMiss forgets all learned state between requests (the paper's
	// "disable cookie caching" worst case).
	ModeMiss ClientMode = iota + 1
	// ModeHit reuses learned cookies/names (steady-state best case).
	ModeHit
)

// ClientConfig parameterizes a scheme client.
type ClientConfig struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// Kind selects the scheme.
	Kind ClientKind
	// Mode selects cache-miss or cache-hit behavior.
	Mode ClientMode
	// Target is the guarded ANS's public address.
	Target netip.AddrPort
	// QName is the question asked each iteration.
	QName dnswire.Name
	// Wait bounds each response wait (the paper's simulator uses 10 ms).
	Wait time.Duration
	// Interval, when positive, paces requests (one per interval);
	// otherwise the client runs closed-loop as fast as responses return.
	Interval time.Duration
	// DirectTCP skips the UDP truncation redirect and dials TCP
	// immediately (the Figure 7 methodology: "the DNS guard instructs
	// the LRS simulator to use TCP for each DNS request").
	DirectTCP bool
	// Latency, when non-nil, records each successful request's latency;
	// experiments share one histogram across a client fleet to report
	// percentiles next to throughput.
	Latency *metrics.Histogram
}

// ClientStats counts client progress.
type ClientStats struct {
	Attempts  uint64
	Completed uint64
	Timeouts  uint64
	Errors    uint64
}

// Client is a scheme-aware LRS simulator issuing repeated requests for one
// name, per the paper's throughput methodology.
type Client struct {
	cfg ClientConfig

	// learned state (ModeHit)
	fabName    dnswire.Name
	serverIP   netip.Addr // fabricated server address (real glue or COOKIE2)
	wireCookie cookie.Cookie
	hasCookie  bool

	nextID uint16

	// Stats is updated as the client runs.
	Stats ClientStats
	// LastLatency records the most recent request's completion time.
	LastLatency time.Duration
}

// NewClient validates cfg and creates a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Env == nil || !cfg.Target.IsValid() {
		return nil, errors.New("workload: ClientConfig.Env and Target are required")
	}
	if cfg.Kind == 0 {
		cfg.Kind = KindPlain
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeHit
	}
	if cfg.QName == "" {
		cfg.QName = dnswire.MustName("www.foo.com")
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 10 * time.Millisecond
	}
	return &Client{cfg: cfg}, nil
}

// Start spawns the client proc.
func (c *Client) Start() {
	c.cfg.Env.Go("client-"+c.cfg.Kind.String(), c.run)
}

// RunOnce performs a single request synchronously (latency measurements).
func (c *Client) RunOnce() (time.Duration, error) {
	start := c.cfg.Env.Now()
	err := c.request()
	if err != nil {
		return 0, err
	}
	return c.cfg.Env.Now() - start, nil
}

// Forget drops all learned state (forces the miss path).
func (c *Client) Forget() {
	c.fabName = ""
	c.serverIP = netip.Addr{}
	c.hasCookie = false
}

// run issues requests until the simulation horizon.
func (c *Client) run() {
	for {
		iterStart := c.cfg.Env.Now()
		if c.cfg.Mode == ModeMiss {
			c.Forget()
		}
		if c.request() == nil {
			c.LastLatency = c.cfg.Env.Now() - iterStart
			if c.cfg.Latency != nil {
				c.cfg.Latency.Observe(c.LastLatency)
			}
		}
		if c.cfg.Interval > 0 {
			// Paced: wait out the rest of the interval.
			next := iterStart + c.cfg.Interval
			if now := c.cfg.Env.Now(); next > now {
				c.cfg.Env.Sleep(next - now)
			}
		}
	}
}

// request performs one full scheme interaction.
func (c *Client) request() error {
	c.Stats.Attempts++
	var err error
	switch c.cfg.Kind {
	case KindPlain:
		err = c.requestPlain()
	case KindNSName, KindFabIP:
		err = c.requestDNSBased()
	case KindModified:
		err = c.requestModified()
	case KindTCP:
		err = c.requestTCP()
	default:
		err = fmt.Errorf("workload: unknown kind %v", c.cfg.Kind)
	}
	switch {
	case err == nil:
		c.Stats.Completed++
	case errors.Is(err, netapi.ErrTimeout):
		c.Stats.Timeouts++
	default:
		c.Stats.Errors++
	}
	return err
}

// exchange performs one UDP query/response on a fresh ephemeral socket.
func (c *Client) exchange(to netip.AddrPort, msg *dnswire.Message) (*dnswire.Message, error) {
	conn, err := c.cfg.Env.ListenUDP(netip.AddrPort{})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	wire, err := msg.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		return nil, err
	}
	if err := conn.WriteTo(wire, to); err != nil {
		return nil, err
	}
	deadline := c.cfg.Env.Now() + c.cfg.Wait
	for {
		remain := deadline - c.cfg.Env.Now()
		if remain <= 0 {
			return nil, netapi.ErrTimeout
		}
		payload, _, err := conn.ReadFrom(remain)
		if err != nil {
			return nil, err
		}
		resp, err := dnswire.Unpack(payload)
		if err != nil || resp.ID != msg.ID || !resp.Flags.QR {
			continue
		}
		return resp, nil
	}
}

func (c *Client) id() uint16 {
	c.nextID++
	return c.nextID
}

func (c *Client) requestPlain() error {
	resp, err := c.exchange(c.cfg.Target, dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA))
	if err != nil {
		return err
	}
	if resp.Flags.RCode != dnswire.RCodeNoError {
		return fmt.Errorf("workload: rcode %v", resp.Flags.RCode)
	}
	return nil
}

// requestDNSBased drives messages 1-10 of Figure 2 (as many as the cached
// state requires).
func (c *Client) requestDNSBased() error {
	// Step 1: obtain the fabricated NS name (message 1/2).
	if c.fabName == "" {
		resp, err := c.exchange(c.cfg.Target, dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA))
		if err != nil {
			return err
		}
		if _, answered := firstA(resp.Answers); answered {
			// Direct answer: the guard is in passthrough (or absent) and
			// the real server replied — a real LRS would be satisfied.
			return nil
		}
		fab, ok := firstNSTarget(resp.Authority)
		if !ok {
			return fmt.Errorf("workload: no fabricated NS in response (rcode %v)", resp.Flags.RCode)
		}
		c.fabName = fab
		c.serverIP = netip.Addr{}
	}
	// Step 2: resolve the fabricated name (message 3/6).
	if !c.serverIP.IsValid() {
		resp, err := c.exchange(c.cfg.Target, dnswire.NewQuery(c.id(), c.fabName, dnswire.TypeA))
		if err != nil {
			return err
		}
		addr, ok := firstA(resp.Answers)
		if !ok {
			c.fabName = "" // stale cookie? restart next time
			return fmt.Errorf("workload: no address for fabricated name (rcode %v)", resp.Flags.RCode)
		}
		c.serverIP = addr
		if c.cfg.Kind == KindNSName {
			// Referral variant: message 6 completes the interaction —
			// the client now knows the real next-level server.
			return nil
		}
	}
	if c.cfg.Kind == KindNSName {
		// Cache hit: re-verify through the cookie query (message 3/6).
		resp, err := c.exchange(c.cfg.Target, dnswire.NewQuery(c.id(), c.fabName, dnswire.TypeA))
		if err != nil {
			return err
		}
		if _, ok := firstA(resp.Answers); !ok {
			c.fabName = ""
			return fmt.Errorf("workload: cookie query failed (rcode %v)", resp.Flags.RCode)
		}
		return nil
	}
	// Fabricated-IP variant: message 7/10 to the cookie address.
	resp, err := c.exchange(netip.AddrPortFrom(c.serverIP, 53), dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA))
	if err != nil {
		c.serverIP = netip.Addr{} // cookie IP may have rotated
		return err
	}
	if _, ok := firstA(resp.Answers); !ok {
		return fmt.Errorf("workload: no final answer (rcode %v)", resp.Flags.RCode)
	}
	return nil
}

// requestModified drives Figure 3: cookie exchange then stamped query.
func (c *Client) requestModified() error {
	if !c.hasCookie {
		req := dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA)
		guard.AttachCookie(req, cookie.Cookie{}, 0)
		resp, err := c.exchange(c.cfg.Target, req)
		if err != nil {
			return err
		}
		ck, _, _, ok := guard.FindCookie(resp)
		if !ok || ck.IsZero() {
			if resp.Flags.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0 {
				// Legacy/passthrough server answered directly.
				return nil
			}
			return errors.New("workload: no cookie in exchange response")
		}
		c.wireCookie = ck
		c.hasCookie = true
	}
	req := dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA)
	guard.AttachCookie(req, c.wireCookie, 0)
	resp, err := c.exchange(c.cfg.Target, req)
	if err != nil {
		return err
	}
	if resp.Flags.RCode != dnswire.RCodeNoError {
		c.hasCookie = false
		return fmt.Errorf("workload: rcode %v", resp.Flags.RCode)
	}
	return nil
}

// requestTCP drives §III-C: truncation redirect, then DNS over TCP.
func (c *Client) requestTCP() error {
	if !c.cfg.DirectTCP {
		resp, err := c.exchange(c.cfg.Target, dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA))
		if err != nil {
			return err
		}
		if !resp.Flags.TC {
			if len(resp.Answers) > 0 {
				// Answered over UDP (guard inactive): done.
				return nil
			}
			// A referral or empty response: a full LRS would chase it,
			// but this client only measures the TCP path.
			return fmt.Errorf("workload: expected TC or answers, got rcode %v", resp.Flags.RCode)
		}
	}
	conn, err := c.cfg.Env.DialTCP(c.cfg.Target)
	if err != nil {
		return err
	}
	defer conn.Close()
	q := dnswire.NewQuery(c.id(), c.cfg.QName, dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		return err
	}
	frame, err := dnswire.AppendTCPFrame(nil, wire)
	if err != nil {
		return err
	}
	if _, err := conn.Write(frame); err != nil {
		return err
	}
	var sc dnswire.FrameScanner
	buf := make([]byte, 4096)
	deadline := c.cfg.Env.Now() + maxDur(c.cfg.Wait, 100*time.Millisecond)
	for {
		remain := deadline - c.cfg.Env.Now()
		if remain <= 0 {
			return netapi.ErrTimeout
		}
		n, err := conn.Read(buf, remain)
		if err != nil {
			return err
		}
		// One read may carry several frames: every complete one is judged
		// before the next read.
		sc.Add(buf[:n])
		for {
			msg, ok, err := sc.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if tresp, err := dnswire.Unpack(msg); err == nil && tresp.ID == q.ID {
				return nil
			}
		}
	}
}

func firstNSTarget(rrs []dnswire.RR) (dnswire.Name, bool) {
	for _, rr := range rrs {
		if d, ok := rr.Data.(*dnswire.NSData); ok {
			return d.Host, true
		}
	}
	return "", false
}

func firstA(rrs []dnswire.RR) (netip.Addr, bool) {
	for _, rr := range rrs {
		if d, ok := rr.Data.(*dnswire.AData); ok {
			return d.Addr, true
		}
	}
	return netip.Addr{}, false
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
