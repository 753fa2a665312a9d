// Command dnsq is a small dig-like DNS query tool. It speaks plain DNS and,
// with -cookie, the modified-DNS cookie extension (§III-D): it first obtains
// a cookie from the guarded server, then sends the stamped query.
//
// Usage:
//
//	dnsq -server 127.0.0.1:5353 www.foo.com A
//	dnsq -server 127.0.0.1:5355 -cookie www.foo.com A
//	dnsq -server 127.0.0.1:5355 -cookie-file /tmp/ck www.foo.com A
//
// -cookie-file caches the obtained cookie across invocations (obtaining one
// on first use), which is how the crash-restart smoke test proves a cookie
// minted before a guard restart still verifies after it.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"strings"
	"time"

	"dnsguard"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "127.0.0.1:53", "DNS server address")
	useCookie := flag.Bool("cookie", false, "perform the modified-DNS cookie exchange first")
	cookieFile := flag.String("cookie-file", "", "present the cookie cached in this file, refreshing it after each exchange (implies -cookie when the file is absent)")
	timeout := flag.Duration("timeout", 3*time.Second, "response timeout")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: dnsq [flags] <name> [type]")
	}
	qname, err := dnsguard.ParseName(flag.Arg(0))
	if err != nil {
		return fmt.Errorf("parsing name: %w", err)
	}
	qtype := dnswire.TypeA
	if flag.NArg() > 1 {
		qtype, err = parseType(flag.Arg(1))
		if err != nil {
			return err
		}
	}
	target, err := netip.ParseAddrPort(*server)
	if err != nil {
		return fmt.Errorf("parsing -server: %w", err)
	}

	env := dnsguard.NewEnv()
	var ck cookie.Cookie
	if *cookieFile != "" {
		if cached, err := loadCookie(*cookieFile); err == nil {
			ck = cached
			fmt.Printf(";; presenting cached cookie %x… from %s\n", ck[:4], *cookieFile)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("reading -cookie-file: %w", err)
		} else {
			*useCookie = true
		}
	}
	if *useCookie && ck.IsZero() {
		req := dnswire.NewQuery(uint16(rand.Int()), qname, qtype)
		guard.AttachCookie(req, cookie.Cookie{}, 0)
		resp, err := exchange(env, target, req, *timeout, false)
		if err != nil {
			return fmt.Errorf("cookie exchange: %w", err)
		}
		got, _, _, ok := guard.FindCookie(resp)
		if !ok {
			fmt.Println(";; server is not cookie-capable, continuing plain")
		} else {
			ck = got
			fmt.Printf(";; obtained cookie %x…\n", ck[:4])
		}
	}

	q := dnswire.NewQuery(uint16(rand.Int()), qname, qtype)
	if !ck.IsZero() {
		guard.AttachCookie(q, ck, 0)
	}
	start := time.Now()
	resp, err := exchange(env, target, q, *timeout, false)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if resp.Flags.TC {
		fmt.Println(";; truncated: retrying over TCP")
		resp, err = exchange(env, target, q, *timeout, true)
		if err != nil {
			return fmt.Errorf("TCP retry: %w", err)
		}
	}
	if *cookieFile != "" {
		// The server may have rotated keys and re-stamped the response;
		// cache whichever cookie is freshest for the next invocation.
		if got, _, _, ok := guard.FindCookie(resp); ok {
			ck = got
		}
		if !ck.IsZero() {
			if err := saveCookie(*cookieFile, ck); err != nil {
				return fmt.Errorf("writing -cookie-file: %w", err)
			}
		}
	}
	fmt.Printf(";; ->>HEADER<<- rcode: %v, aa: %v, ra: %v, time: %v\n",
		resp.Flags.RCode, resp.Flags.AA, resp.Flags.RA, elapsed.Round(time.Microsecond))
	printSection(";; ANSWER", resp.Answers)
	printSection(";; AUTHORITY", resp.Authority)
	printSection(";; ADDITIONAL", resp.Additional)
	return nil
}

// exchange sends q to server over UDP, or over TCP when tcp is set, and
// takes its answer by dnswire's rule.
func exchange(env dnsguard.Env, to netip.AddrPort, q *dnswire.Message, timeout time.Duration, tcp bool) (resp *dnswire.Message, err error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if tcp {
		resp, _, err = dnswire.ExchangeTCP(env, to, wire, timeout, nil)
	} else {
		resp, _, err = dnswire.ExchangeUDP(env, to, wire, timeout)
	}
	return resp, err
}

// loadCookie reads a hex-encoded cookie cached by a previous -cookie-file
// run. The file is the client half of the guard's restart story: the cookie
// stays valid for its full TTL even across guard restarts when the guard
// persists its keyring (-state-file on dnsguardd).
func loadCookie(path string) (cookie.Cookie, error) {
	var ck cookie.Cookie
	b, err := os.ReadFile(path)
	if err != nil {
		return ck, err
	}
	n, err := hex.Decode(ck[:], []byte(strings.TrimSpace(string(b))))
	if err != nil {
		return ck, fmt.Errorf("%s: %w", path, err)
	}
	if n != len(ck) {
		return ck, fmt.Errorf("%s: cookie is %d bytes, want %d", path, n, len(ck))
	}
	return ck, nil
}

func saveCookie(path string, ck cookie.Cookie) error {
	return os.WriteFile(path, []byte(hex.EncodeToString(ck[:])+"\n"), 0o600)
}

func printSection(title string, rrs []dnswire.RR) {
	if len(rrs) == 0 {
		return
	}
	fmt.Println(title)
	for _, rr := range rrs {
		fmt.Printf("%s\n", rr)
	}
}

func parseType(s string) (dnswire.Type, error) {
	switch strings.ToUpper(s) {
	case "A":
		return dnswire.TypeA, nil
	case "AAAA":
		return dnswire.TypeAAAA, nil
	case "NS":
		return dnswire.TypeNS, nil
	case "CNAME":
		return dnswire.TypeCNAME, nil
	case "SOA":
		return dnswire.TypeSOA, nil
	case "MX":
		return dnswire.TypeMX, nil
	case "TXT":
		return dnswire.TypeTXT, nil
	case "PTR":
		return dnswire.TypePTR, nil
	default:
		return 0, fmt.Errorf("unsupported type %q", s)
	}
}
