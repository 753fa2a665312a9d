package metrics

import (
	"bytes"
	"container/list"
	"errors"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"dnsguard/internal/errs"
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

// endpoint is one row of the table. render appends the body to b and returns
// it with the status, so a probe runs once and Content-Length is exact.
type endpoint struct {
	path, contentType string
	render            func(b []byte) ([]byte, string)
}

// probe answers 200 "ok" when check is nil or passes, else 503 with the
// error text, so an operator's curl says why the site is out of rotation.
func probe(path string, check func() error) endpoint {
	return endpoint{path, textType, func(b []byte) ([]byte, string) {
		if check != nil {
			if err := check(); err != nil {
				return append(append(b, err.Error()...), '\n'), "503 Service Unavailable"
			}
		}
		return append(b, "ok\n"...), "200 OK"
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
		return nil, errs.Wrap("metrics: listen "+addr+": "+err.Error(), err)
	}
	s := &responder{Listener: ln, deadline: connDeadline, table: append([]endpoint{
		{"/metrics", textType, func(b []byte) ([]byte, string) { return r.appendText(b), "200 OK" }},
		{"/debug/vars", "application/json; charset=utf-8", func(b []byte) ([]byte, string) { return r.appendJSON(b), "200 OK" }},
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
	free     [][]byte  // the buffers of connections gone, maxConns at most
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
		seat, buf := s.open.PushBack(c), []byte(nil)
		if n := len(s.free); n > 0 {
			buf, s.free = s.free[n-1], s.free[:n-1]
		}
		s.mu.Unlock()
		s.conns.Add(1)
		go s.handle(c, seat, buf)
	}
}

// handle answers in buf, taken from the free list and given back: the body is
// rendered over the request head, and the answer's head appended after it.
func (s *responder) handle(c netapi.Conn, seat *list.Element, buf []byte) {
	defer s.conns.Done()
	defer func() {
		s.mu.Lock()
		s.open.Remove(seat) // does nothing to a seat already taken away
		if len(s.free) < maxConns {
			s.free = append(s.free, buf[:0])
		}
		s.mu.Unlock()
		c.Close()
	}()
	defer time.AfterFunc(s.deadline, func() { c.Close() }).Stop() // cuts reads and writes alike
	buf, method, path, status, err := readRequest(c, buf)
	if err != nil {
		return // the peer stalled, hung up or was displaced: nothing to say
	}
	// The body is rendered over the request: read what it says first.
	e, head := endpoint{contentType: textType}, string(method) == "HEAD"
	for _, row := range s.table {
		if row.path == string(path) {
			e = row
		}
	}
	body := append(append(buf[:0], status...), '\n')
	if e.render != nil {
		body, status = e.render(buf[:0])
	}
	buf = append(append(append(body, "HTTP/1.1 "...), status...), "\r\nDate: "...)
	buf = time.Now().UTC().AppendFormat(buf, "Mon, 02 Jan 2006 15:04:05 GMT")
	buf = append(append(buf, "\r\nAllow: GET, HEAD\r\nContent-Type: "...), e.contentType...)
	buf = strconv.AppendInt(append(buf, "\r\nContent-Length: "...), int64(len(body)), 10)
	buf = append(buf, "\r\nConnection: close\r\n\r\n"...)
	if _, err := c.Write(buf[len(body):]); err == nil && !head {
		_, _ = c.Write(buf[:len(body)]) // a peer that left gets no answer
	}
}

// readRequest reads a request head into buf, grown if need be, through its
// blank line, maxHead bytes at most, and parses the request line. refusal is
// the answer when the table has no row for path, which is "" for a request
// refused whatever it asks for. err: the connection gave out before the head.
func readRequest(c netapi.Conn, buf []byte) (_, method, path []byte, refusal string, err error) {
	if buf = buf[:cap(buf)]; len(buf) == 0 {
		buf = make([]byte, maxHead/16) // room for what a client sends unprompted
	}
	for n := 0; ; {
		if n == maxHead {
			return buf, nil, nil, "431 Request Header Fields Too Large", nil
		}
		if n == len(buf) {
			buf = append(buf, buf...) // twice the room
		}
		m, err := c.Read(buf[n:min(len(buf), maxHead)], netapi.NoTimeout)
		tail := buf[max(n-2, 0) : n+m] // the blank line may straddle two reads
		n += m
		if bytes.Contains(tail, []byte("\n\r\n")) || bytes.Contains(tail, []byte("\n\n")) {
			break
		}
		if err != nil {
			return buf, nil, nil, "", err
		}
	}
	line, _, _ := bytes.Cut(buf, []byte("\n"))
	method, rest, _ := bytes.Cut(bytes.TrimSuffix(line, []byte("\r")), []byte(" "))
	path, proto, _ := bytes.Cut(rest, []byte(" "))
	if len(method) == 0 || !bytes.HasPrefix(path, []byte("/")) || !bytes.HasPrefix(proto, []byte("HTTP/1.")) ||
		bytes.IndexByte(proto, ' ') >= 0 {
		return buf, nil, nil, "400 Bad Request", nil
	}
	if string(method) != "GET" && string(method) != "HEAD" {
		return buf, method, nil, "405 Method Not Allowed", nil
	}
	path, _, _ = bytes.Cut(path, []byte("?"))
	return buf, method, path, "404 Not Found", nil
}
