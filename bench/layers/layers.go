// Package layers times the guard's layers from outside: in-process timers
// wrapped around each module's public functions, a synthetic-I/O rig around
// guard.NewRemote, and the span ledger that replays a workload's packet mix
// through the layer calls in the order the guard makes them. Inputs come
// from the generator's own wire builders, so the bytes timed here are the
// bytes the daemons are offered.
//
// This is the one part of the benchmark that imports the guard's internals.
// It uses only exported names; a later change that removes one of them has
// to say what replaces the number it fed.
package layers

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"dnsguard/bench/gen"
	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
	"dnsguard/internal/zone"
)

// Reps is how many times each timer repeats; the reported value is the
// median repetition, with the extremes beside it.
const Reps = 7

// nSources matches the workloads' legitimate population.
const nSources = 2048

// Value is one layer metric.
type Value struct {
	Name string
	Unit string
	gen.Summary
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink int

// Suite holds the inputs every timer shares.
type Suite struct {
	auth    *cookie.Authenticator
	authSip *cookie.Authenticator
	nsc     cookie.NSCodec
	srv     *ans.Server
	apex    dnswire.Name

	srcs    []netip.Addr // the legitimate population
	labels  []string     // each source's valid cookie label
	cookies []cookie.Cookie
	sipCk   []cookie.Cookie
	child   []int

	cookieQ  [][]byte // valid cookie queries, one per source
	forgedQ  [][]byte // well-formed cookie names with forged labels
	plainQ   [][]byte // cookie-less child queries
	txtQ     [][]byte // child queries carrying a forged TXT cookie
	referral [][]byte // ansd's referral for each child, as the guard receives it
	fabA     []*dnswire.Message
	grant    []*dnswire.Message

	fresh uint32 // next never-used source address
	out   []Value
}

// NewSuite prepares the shared inputs from the benchmark zone and the seed.
func NewSuite(zoneText string, seed uint64) (*Suite, error) {
	z, err := zone.Parse(zoneText, dnswire.Root)
	if err != nil {
		return nil, fmt.Errorf("parsing benchmark zone: %w", err)
	}
	srv, err := ans.New(ans.Config{Env: realnet.New(), Addr: netip.MustParseAddrPort("127.0.0.1:0"), Zone: z})
	if err != nil {
		return nil, err
	}
	auth, err := cookie.Open(cookie.Options{})
	if err != nil {
		return nil, err
	}
	authSip, err := cookie.Open(cookie.Options{MAC: cookie.SipHash})
	if err != nil {
		return nil, err
	}
	s := &Suite{auth: auth, authSip: authSip, srv: srv, apex: dnswire.MustName("foo.com"), fresh: 0x7F400000}
	rng := gen.NewRand(seed, 7)
	pick := gen.NewWalk(gen.NewRand(seed, 1), 1<<20)
	for i := 0; i < nSources; i++ {
		a := uint32(0x7F020000 + pick.Next())
		src := netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
		k := rng.Intn(gen.Children)
		c := auth.Mint(src)
		label := s.nsc.EncodeLabel(c)
		s.srcs = append(s.srcs, src)
		s.child = append(s.child, k)
		s.cookies = append(s.cookies, c)
		s.sipCk = append(s.sipCk, authSip.Mint(src))
		s.labels = append(s.labels, label)
		id := uint16(rng.Uint64())
		s.cookieQ = append(s.cookieQ, gen.AppendQuery(nil, id, []byte(label), k))
		forged := []byte(fmt.Sprintf("pr%08x", uint32(rng.Uint64())))
		s.forgedQ = append(s.forgedQ, gen.AppendQuery(nil, id, forged, k))
		s.plainQ = append(s.plainQ, gen.AppendQuery(nil, id, nil, k))
		var ck [16]byte
		for j := range ck {
			ck[j] = byte(rng.Uint64()) | 1
		}
		s.txtQ = append(s.txtQ, gen.AppendTXTQuery(nil, id, k, &ck))

		childName := dnswire.MustName(fmt.Sprintf("c%d.foo.com", k))
		fab, err := guard.FabricateNSName(s.nsc, c, childName)
		if err != nil {
			return nil, err
		}
		q := dnswire.Question{Name: fab, Type: dnswire.TypeA, Class: dnswire.ClassINET}
		s.fabA = append(s.fabA, &dnswire.Message{
			ID: id, Flags: dnswire.Flags{QR: true, AA: true}, Questions: []dnswire.Question{q},
			Answers: []dnswire.RR{dnswire.NewRR(fab, 3600, &dnswire.AData{Addr: netip.AddrFrom4(gen.Glue(k))})},
		})
		g := dnswire.NewQuery(id, childName, dnswire.TypeA).Response()
		g.Authority = []dnswire.RR{dnswire.NewRR(childName, uint32(cookie.DefaultTTL/time.Second), &dnswire.NSData{Host: fab})}
		s.grant = append(s.grant, g)
	}
	for k := 0; k < gen.Children; k++ {
		resp := srv.HandleQuery(gen.AppendQuery(nil, 0, nil, k))
		if resp == nil {
			return nil, fmt.Errorf("benchmark zone: no answer for child %d", k)
		}
		wire, err := resp.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			return nil, err
		}
		if !gen.CheckReferral(wire, 0, gen.Question(gen.AppendQuery(nil, 0, nil, k)), gen.Glue(k)) {
			return nil, fmt.Errorf("benchmark zone: child %d does not answer with its referral", k)
		}
		s.referral = append(s.referral, wire)
	}
	return s, nil
}

// freshSrc returns a source address no timer has used yet.
func (s *Suite) freshSrc() netip.Addr {
	a := s.fresh
	s.fresh++
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// Values returns every metric recorded so far.
func (s *Suite) Values() []Value { return s.out }

// Get returns one recorded metric's median.
func (s *Suite) Get(name string) float64 {
	for _, v := range s.out {
		if v.Name == name {
			return v.Median
		}
	}
	return 0
}

func (s *Suite) record(name, unit string, vals []float64) {
	s.out = append(s.out, Value{Name: name, Unit: unit, Summary: gen.Summarize(vals)})
}

// timeOp times fn over n calls, Reps times, and records ns per call. fn
// receives a counter that keeps rising across repetitions, so a timer that
// needs never-repeating input can index by it. With allocsName set it also
// records heap allocations per call.
func (s *Suite) timeOp(name string, n int, allocsName string, fn func(i int)) {
	ns := make([]float64, 0, Reps)
	allocs := make([]float64, 0, Reps)
	var ms runtime.MemStats
	for r := 0; r < Reps; r++ {
		base := r * n
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(base + i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(ms.Mallocs-before)/float64(n))
	}
	s.record(name, "ns", ns)
	if allocsName != "" {
		s.record(allocsName, "count", allocs)
	}
}

// nopIO is a capture interface nothing arrives on; the engine built over it
// is never started, only its verified cache is used.
type nopIO struct{}

func (nopIO) Read(time.Duration) (engine.Packet, error)       { return engine.Packet{}, netapi.ErrClosed }
func (nopIO) WriteFromTo(_, _ netip.AddrPort, _ []byte) error { return nil }
func (nopIO) Close() error                                    { return nil }
func (nopIO) HandlePacket(engine.Packet)                      {}
func newCacheEngine() (*engine.Engine, error) {
	return engine.New(engine.Config{
		Env:         realnet.New(),
		IOs:         []engine.PacketIO{nopIO{}},
		NewHandler:  func(int) engine.Handler { return nopIO{} },
		FastPathTTL: time.Minute,
	})
}

// RunMicro runs every in-process timer around a single layer's functions.
func (s *Suite) RunMicro() error {
	at := func(i int) int { return i % nSources }

	// dnswire: the decode and encode calls each packet shape costs.
	s.timeOp("dnswire.parse_view_ns", 40000, "", func(i int) {
		v, _ := dnswire.ParseView(s.cookieQ[at(i)])
		sink += v.End()
	})
	s.timeOp("dnswire.unpack_query_ns", 1500, "dnswire.unpack_query_allocs", func(i int) {
		m, _ := dnswire.Unpack(s.forgedQ[at(i)])
		sink += int(m.ID)
	})
	s.timeOp("dnswire.unpack_txt_query_ns", 1500, "", func(i int) {
		m, _ := dnswire.Unpack(s.txtQ[at(i)])
		sink += int(m.ID)
	})
	s.timeOp("dnswire.unpack_referral_ns", 1000, "dnswire.unpack_referral_allocs", func(i int) {
		m, _ := dnswire.Unpack(s.referral[i%gen.Children])
		sink += len(m.Additional)
	})
	s.timeOp("dnswire.pack_fabricated_a_ns", 1500, "", func(i int) {
		w, _ := s.fabA[at(i)].PackUDP(dnswire.MaxUDPSize)
		sink += len(w)
	})
	s.timeOp("dnswire.pack_grant_ns", 1500, "", func(i int) {
		w, _ := s.grant[at(i)].PackUDP(dnswire.MaxUDPSize)
		sink += len(w)
	})

	// cookie: one MAC per call, whichever entry point reaches it.
	s.timeOp("cookie.mint_md5_ns", 8000, "", func(i int) {
		c := s.auth.Mint(s.srcs[at(i)])
		sink += int(c[0])
	})
	s.timeOp("cookie.verify_label_md5_ns", 8000, "", func(i int) {
		if s.nsc.VerifyLabel(s.auth, s.srcs[at(i)], s.labels[at(i)]) {
			sink++
		}
	})
	s.timeOp("cookie.verify_md5_ns", 8000, "", func(i int) {
		if s.auth.Verify(s.srcs[at(i)], s.cookies[at(i)]) {
			sink++
		}
	})
	bv := cookie.NewBatchVerifier()
	s.timeOp("cookie.batch_verify32_md5_ns", 8000, "", func(i int) {
		if i%32 == 0 {
			bv.Reset(s.auth)
		}
		if bv.VerifyLabel(s.nsc, s.srcs[at(i)], s.labels[at(i)]) {
			sink++
		}
	})
	s.timeOp("cookie.verify_siphash_ns", 20000, "", func(i int) {
		if s.authSip.Verify(s.srcs[at(i)], s.sipCk[at(i)]) {
			sink++
		}
	})

	// engine: the verified-source cache as a read (hit, miss) and as a
	// write at capacity (every insert evicts).
	eng, err := newCacheEngine()
	if err != nil {
		return err
	}
	creds := make([][]byte, nSources)
	for i, src := range s.srcs {
		cred := "ns:" + s.labels[i]
		eng.MarkVerifiedOn(0, src, cred)
		creds[i] = []byte(cred)
	}
	s.timeOp("engine.verified_hit_ns", 20000, "", func(i int) {
		if eng.VerifiedCredMatchOn(0, s.srcs[at(i)], creds[at(i)]) {
			sink++
		}
	})
	strangers := make([]netip.Addr, 8192)
	for i := range strangers {
		strangers[i] = s.freshSrc()
	}
	s.timeOp("engine.verified_miss_ns", 20000, "", func(i int) {
		if eng.VerifiedCredMatchOn(0, strangers[i%len(strangers)], creds[0]) {
			sink++
		}
	})
	const insertN = 4000
	newcomers := make([]netip.Addr, 4096+Reps*insertN)
	for i := range newcomers {
		newcomers[i] = s.freshSrc()
	}
	for _, src := range newcomers[:4096] {
		eng.MarkVerifiedOn(0, src, "ns:pr00000000")
	}
	s.timeOp("engine.verified_insert_evict_ns", insertN, "", func(i int) {
		eng.MarkVerifiedOn(0, newcomers[4096+i], "ns:pr00000000")
	})

	// ratelimit: the hot per-source bucket, and both limiters with full
	// tables and sources they have never seen.
	rl2 := ratelimit.NewLimiter2(ratelimit.DefaultLimiter2Config(), 0)
	const hotStep = time.Second / 12000
	s.timeOp("ratelimit.rl2_hot_ns", 20000, "", func(i int) {
		if rl2.AllowRequest(s.srcs[at(i)], time.Duration(i)*hotStep) {
			sink++
		}
	})
	const coldN = 10000
	cold := make([]netip.Addr, 8192+Reps*coldN)
	for i := range cold {
		cold[i] = s.freshSrc()
	}
	const coldStep = time.Second / 13000
	rl1 := ratelimit.NewLimiter1(ratelimit.DefaultLimiter1Config(), 0)
	rl2c := ratelimit.NewLimiter2(ratelimit.DefaultLimiter2Config(), 0)
	for i, src := range cold[:8192] {
		rl1.AllowResponse(src, time.Duration(i)*coldStep)
		rl2c.AllowRequest(src, time.Duration(i)*coldStep)
	}
	s.timeOp("ratelimit.rl1_cold_ns", coldN, "", func(i int) {
		if rl1.AllowResponse(cold[8192+i], time.Duration(8192+i)*coldStep) {
			sink++
		}
	})
	s.timeOp("ratelimit.rl2_cold_ns", coldN, "", func(i int) {
		if rl2c.AllowRequest(cold[8192+i], time.Duration(8192+i)*coldStep) {
			sink++
		}
	})

	// ans: the authoritative lookup behind every forwarded query.
	s.timeOp("ans.handle_referral_ns", 1000, "", func(i int) {
		if m := s.srv.HandleQuery(s.plainQ[at(i)]); m != nil {
			sink += len(m.Authority)
		}
	})
	return s.runRealnet()
}

// runRealnet times loopback datagram I/O per datagram at batch 1 and 32:
// 256 datagrams are queued on a socket and drained (reads), or written to a
// socket that is drained between repetitions (writes).
func (s *Suite) runRealnet() error {
	env := realnet.New()
	lo := netip.MustParseAddrPort("127.0.0.1:0")
	a, err := env.ListenUDP(lo)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := env.ListenUDP(lo)
	if err != nil {
		return err
	}
	defer b.Close()
	if rb, ok := b.(interface{ SetReadBuffer(int) error }); ok {
		_ = rb.SetReadBuffer(4 << 20)
	}
	const burst = 256
	ab, bb := netapi.AsBatch(a), netapi.AsBatch(b)
	out := make([]netapi.Datagram, 32)
	for i := range out {
		out[i].Set(s.cookieQ[i], b.LocalAddr())
	}
	in := netapi.NewSlab(32, 2048)
	fill := func() error {
		for i := 0; i < burst/32; i++ {
			if n, err := ab.WriteBatch(out); err != nil || n != 32 {
				return fmt.Errorf("loopback write: %d of 32 sent: %v", n, err)
			}
		}
		return nil
	}
	drain := func(batch int) (time.Duration, error) {
		t0 := time.Now()
		for got := 0; got < burst; {
			n, err := bb.ReadBatch(in[:batch], time.Second)
			if err != nil {
				return 0, fmt.Errorf("loopback read after %d of %d: %w", got, burst, err)
			}
			got += n
		}
		return time.Since(t0), nil
	}
	for _, batch := range []int{1, 32} {
		var rd, wr []float64
		for r := 0; r < Reps; r++ {
			t0 := time.Now()
			for i := 0; i < burst/batch; i++ {
				if _, err := ab.WriteBatch(out[:batch]); err != nil {
					return err
				}
			}
			wr = append(wr, float64(time.Since(t0).Nanoseconds())/burst)
			if _, err := drain(32); err != nil {
				return err
			}
			if err := fill(); err != nil {
				return err
			}
			d, err := drain(batch)
			if err != nil {
				return err
			}
			rd = append(rd, float64(d.Nanoseconds())/burst)
		}
		s.record(fmt.Sprintf("realnet.read_b%d_ns", batch), "ns", rd)
		s.record(fmt.Sprintf("realnet.write_b%d_ns", batch), "ns", wr)
	}
	return nil
}
