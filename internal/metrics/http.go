package metrics

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// The -metrics-addr listener answers a fixed table of GET endpoints, one
// request per connection, and nothing else: no TLS, no keep-alive, no
// chunking, no request body (a site that needs those fronts the port with a
// sidecar, DESIGN.md §9). net/http's server would link crypto/tls, x509,
// http2 and sixty more packages into every daemon and keep them resident.
const (
	connDeadline = 10 * time.Second // one connection, accept to close
	maxHead      = 8 << 10          // request line + headers, bytes
	maxConns     = 16               // connections open at once
	textType     = "text/plain; charset=utf-8"
)

// endpoint is one row of the table. render writes the body and returns the
// status, so a probe runs once and Content-Length is exact.
type endpoint struct {
	path, contentType string
	render            func(body *bytes.Buffer) (status string)
}

// probe answers 200 "ok" when check is nil or passes, else 503 with the
// error text, so an operator's curl says why the site is out of rotation.
func probe(path string, check func() error) endpoint {
	return endpoint{path, textType, func(b *bytes.Buffer) string {
		if check != nil {
			if err := check(); err != nil {
				fmt.Fprintln(b, err)
				return "503 Service Unavailable"
			}
		}
		b.WriteString("ok\n")
		return "200 OK"
	}}
}

// ServeHealth listens on addr, a literal ip:port, and serves /metrics
// (sorted "name value" text), /debug/vars (the same snapshot as one JSON
// object) and the probes orchestrators and catchment fronts poll: /healthz,
// liveness, and /readyz, 200 only when the component should receive traffic
// (guard lifecycle serving, keyring epoch current, ingress backlog under
// threshold); a nil func always passes. It serves from a goroutine until the
// returned listener is closed, whose Close returns once that goroutine and
// every connection it started are done.
func ServeHealth(addr string, r *Registry, healthz, readyz func() error) (netapi.Listener, error) {
	return serve(addr, r, probe("/healthz", healthz), probe("/readyz", readyz))
}

func serve(addr string, r *Registry, probes ...endpoint) (netapi.Listener, error) {
	ap, err := netip.ParseAddrPort(addr)
	var ln netapi.Listener
	if err == nil {
		ln, err = realnet.New().ListenTCP(ap)
	}
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s := &responder{Listener: ln, deadline: connDeadline, table: append([]endpoint{
		{"/metrics", textType, func(b *bytes.Buffer) string { _ = r.WriteText(b); return "200 OK" }},
		{"/debug/vars", "application/json; charset=utf-8", func(b *bytes.Buffer) string { _ = r.WriteJSON(b); return "200 OK" }},
	}, probes...)}
	s.conns.Add(1)
	go s.acceptLoop()
	return s, nil
}

type responder struct {
	netapi.Listener
	table    []endpoint
	deadline time.Duration
	conns    sync.WaitGroup // the accept loop and the connections it started
	mu       sync.Mutex
	open     list.List // of netapi.Conn, longest open first, maxConns at most
}

func (s *responder) Close() error {
	err := s.Listener.Close()
	s.conns.Wait()
	return err
}

// acceptLoop keeps at most maxConns connections open: one more closes the
// one open longest. A peer that connects and says nothing holds maxConns
// descriptors for connDeadline at most, and cannot keep a probe out: the
// probe's connection displaces one of the peer's.
func (s *responder) acceptLoop() {
	defer s.conns.Done()
	for {
		c, err := s.Accept(netapi.NoTimeout)
		closed := errors.Is(err, netapi.ErrClosed)
		if err != nil && !closed { // out of descriptors, most likely: let some close
			time.Sleep(50 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		// Closed: everyone out. Full: the one open longest makes way.
		for s.open.Len() > 0 && (closed || s.open.Len() == maxConns) {
			s.open.Remove(s.open.Front()).(netapi.Conn).Close()
		}
		if closed {
			s.mu.Unlock()
			return
		}
		seat := s.open.PushBack(c)
		s.mu.Unlock()
		s.conns.Add(1)
		go s.handle(c, seat)
	}
}

func (s *responder) handle(c netapi.Conn, seat *list.Element) {
	defer s.conns.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		s.open.Remove(seat) // does nothing to a seat already taken away
		s.mu.Unlock()
	}()
	defer time.AfterFunc(s.deadline, func() { c.Close() }).Stop() // cuts reads and writes alike
	method, path, refusal, err := readRequest(c)
	if err != nil {
		return // the peer stalled, hung up or was displaced: nothing to say
	}
	e := endpoint{"", textType, func(b *bytes.Buffer) string { b.WriteString(refusal + "\n"); return refusal }}
	for _, row := range s.table {
		if row.path == path {
			e = row
		}
	}
	var body bytes.Buffer
	status := e.render(&body)
	head := fmt.Appendf(nil, "HTTP/1.1 %s\r\nDate: %s\r\nAllow: GET, HEAD\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		status, time.Now().UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT"), e.contentType, body.Len())
	if _, err := c.Write(head); err == nil && method != "HEAD" {
		_, _ = c.Write(body.Bytes()) // a peer that left gets no answer
	}
}

// readRequest reads a request head through its blank line, maxHead bytes at
// most, and parses the request line. refusal is the answer when the table has
// no row for path, which is "" (never a row's) for a request refused whatever
// it asks for. err: the connection gave out before the head did.
func readRequest(c netapi.Conn) (method, path, refusal string, err error) {
	buf := make([]byte, maxHead/16) // room for what a client sends unprompted
	for n := 0; ; {
		if n == maxHead {
			return "", "", "431 Request Header Fields Too Large", nil
		}
		if n == len(buf) {
			buf = append(buf, buf...) // twice the room
		}
		m, err := c.Read(buf[n:], netapi.NoTimeout)
		tail := buf[max(n-2, 0) : n+m] // the blank line may straddle two reads
		n += m
		if bytes.Contains(tail, []byte("\n\r\n")) || bytes.Contains(tail, []byte("\n\n")) {
			break
		}
		if err != nil {
			return "", "", "", err
		}
	}
	line, _, _ := bytes.Cut(buf, []byte("\n"))
	f := strings.Split(strings.TrimSuffix(string(line), "\r"), " ")
	if len(f) != 3 || f[0] == "" || !strings.HasPrefix(f[1], "/") || !strings.HasPrefix(f[2], "HTTP/1.") {
		return "", "", "400 Bad Request", nil
	}
	if f[0] != "GET" && f[0] != "HEAD" {
		return f[0], "", "405 Method Not Allowed", nil
	}
	path, _, _ = strings.Cut(f[1], "?")
	return f[0], path, "404 Not Found", nil
}
