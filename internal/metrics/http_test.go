package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/realnet"
)

// The responder is checked through the standard library's client wherever
// the client can make the request, and over a raw connection where it cannot.

func fetch(t *testing.T, method, url string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp, string(body)
}

// raw sends req as it stands and returns everything the responder says
// before it closes the connection.
func raw(t *testing.T, addr netip.AddrPort, req string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("%q: %v", req, err)
	}
	return string(resp)
}

func TestResponderConformance(t *testing.T) {
	r := NewRegistry()
	r.Func("guard_remote_received", constant(9))
	r.Func("ratio", math.NaN)
	notReady := errors.New("keyring epoch 2 behind fleet epoch 3")
	probes := 0
	ln, err := ServeHealth("127.0.0.1:0", r, nil, func() error { probes++; return notReady })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	const text, js = "text/plain; charset=utf-8", "application/json; charset=utf-8"
	for _, tc := range []struct {
		method, path string
		status       int
		contentType  string
		body         string
	}{
		{"GET", "/metrics", 200, text, "guard_remote_received 9\nratio NaN\n"},
		{"GET", "/debug/vars", 200, js, `{"guard_remote_received":9,"ratio":null}` + "\n"},
		{"GET", "/healthz", 200, text, "ok\n"},
		{"GET", "/readyz", 503, text, notReady.Error() + "\n"},
		{"GET", "/metrics?format=text&x=/readyz", 200, text, "guard_remote_received 9\nratio NaN\n"},
		{"GET", "/healthz?", 200, text, "ok\n"},
		{"GET", "/", 404, text, "404 Not Found\n"},
		{"GET", "/metrics/", 404, text, "404 Not Found\n"},
		{"GET", "/debug/pprof/", 404, text, "404 Not Found\n"},
		{"POST", "/metrics", 405, text, "405 Method Not Allowed\n"},
		{"DELETE", "/readyz", 405, text, "405 Method Not Allowed\n"},
	} {
		resp, body := fetch(t, tc.method, base+tc.path)
		if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != tc.contentType || body != tc.body {
			t.Errorf("%s %s = %d %q %q, want %d %q %q", tc.method, tc.path,
				resp.StatusCode, resp.Header.Get("Content-Type"), body, tc.status, tc.contentType, tc.body)
		}
		if resp.ContentLength != int64(len(tc.body)) || !resp.Close {
			t.Errorf("%s %s: Content-Length %d for %d bytes, Connection: close %v",
				tc.method, tc.path, resp.ContentLength, len(tc.body), resp.Close)
		}
		if _, err := http.ParseTime(resp.Header.Get("Date")); err != nil {
			t.Errorf("%s %s: Date: %v", tc.method, tc.path, err)
		}
		if tc.status == 405 && resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("%s %s: Allow %q", tc.method, tc.path, resp.Header.Get("Allow"))
		}
	}
	if probes != 1 {
		t.Errorf("one GET and one refused DELETE of /readyz ran the probe %d times, want 1", probes)
	}

	// HEAD: the GET's headers and no body.
	for _, path := range []string{"/metrics", "/readyz"} {
		get, want := fetch(t, "GET", base+path)
		head, body := fetch(t, "HEAD", base+path)
		if head.StatusCode != get.StatusCode || head.ContentLength != int64(len(want)) || body != "" ||
			head.Header.Get("Content-Type") != get.Header.Get("Content-Type") {
			t.Errorf("HEAD %s = %d, Content-Length %d, body %q; GET = %d with %d bytes",
				path, head.StatusCode, head.ContentLength, body, get.StatusCode, len(want))
		}
	}

	// What the client will not send.
	for _, tc := range []struct{ req, statusLine string }{
		{"GET /healthz HTTP/1.0\r\n\r\n", "HTTP/1.1 200 OK\r\n"},
		{"GET /healthz HTTP/1.1\nHost: x\n\n", "HTTP/1.1 200 OK\r\n"},
		{"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "HTTP/1.1 200 OK\r\n"},
		{"\r\n\r\n", "HTTP/1.1 400 Bad Request\r\n"},
		{"GET\r\n\r\n", "HTTP/1.1 400 Bad Request\r\n"},
		{"GET  /healthz HTTP/1.1\r\n\r\n", "HTTP/1.1 400 Bad Request\r\n"},
		{"GET healthz HTTP/1.1\r\n\r\n", "HTTP/1.1 400 Bad Request\r\n"},
		{"GET /healthz\r\n\r\n", "HTTP/1.1 400 Bad Request\r\n"},
		{"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", "HTTP/1.1 400 Bad Request\r\n"},
		{"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\n\n", "HTTP/1.1 400 Bad Request\r\n"},
	} {
		if resp := raw(t, ln.Addr(), tc.req); !strings.HasPrefix(resp, tc.statusLine) {
			t.Errorf("%q answered %q, want %q", tc.req, resp, tc.statusLine)
		} else if strings.HasPrefix(tc.req, "HEAD") && !strings.HasSuffix(resp, "\r\n\r\n") {
			t.Errorf("%q answered with a body: %q", tc.req, resp)
		}
	}

	// Without probes there are none, and an empty registry is an empty page.
	plain, err := serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	base = "http://" + plain.Addr().String()
	if resp, body := fetch(t, "GET", base+"/metrics"); resp.StatusCode != 200 || body != "" {
		t.Errorf("empty registry /metrics = %d %q, want 200 and no body", resp.StatusCode, body)
	}
	if resp, body := fetch(t, "GET", base+"/debug/vars"); resp.StatusCode != 200 || body != "{}\n" {
		t.Errorf("empty registry /debug/vars = %d %q, want 200 {}", resp.StatusCode, body)
	}
	if resp, _ := fetch(t, "GET", base+"/healthz"); resp.StatusCode != 404 {
		t.Errorf("/healthz with no probes = %d, want 404", resp.StatusCode)
	}
	// The address is a literal: nothing here resolves a name.
	if ln, err := serve("localhost:0", NewRegistry()); err == nil {
		ln.Close()
		t.Error("serve(\"localhost:0\") bound a listener; want a parse error")
	}
}

// One client, several goroutines, many requests each: every response closes
// its connection and the client reconnects. The connections a Transport under
// concurrent load dials in vain and parks are silent peers to the responder;
// far fewer than maxConns, they are left alone and answered when used.
func TestResponderSequentialAndConcurrentGets(t *testing.T) {
	r := NewRegistry()
	var hits atomic.Uint64
	r.FuncUint("hits", hits.Load)
	ln, err := ServeHealth("127.0.0.1:0", r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for g := 0; g < maxConns/4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				hits.Add(1)
				resp, err := client.Get("http://" + ln.Addr().String() + "/debug/vars")
				if err != nil {
					t.Error(err)
					return
				}
				var obj map[string]float64
				err = json.NewDecoder(resp.Body).Decode(&obj)
				resp.Body.Close()
				if err != nil || obj["hits"] < float64(i+1) {
					t.Errorf("request %d: %v %v", i, obj, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// startResponder is serve with a deadline a test can wait out.
func startResponder(t *testing.T, deadline time.Duration, table ...endpoint) *responder {
	t.Helper()
	ln, err := realnet.New().ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	s := &responder{Listener: ln, deadline: deadline, table: table}
	s.conns.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *responder) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	return c
}

// The metrics port cannot be pinned: a peer that says nothing, or never
// stops talking, is cut off, and neither keeps a probe out.
func TestResponderCutsOffStalledPeers(t *testing.T) {
	t.Run("silent", func(t *testing.T) {
		s := startResponder(t, 100*time.Millisecond, probe("/readyz", nil))
		c := dial(t, s)
		start := time.Now()
		if n, err := c.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("a silent connection read %d bytes, %v; want to be closed", n, err)
		}
		if d := time.Since(start); d < 50*time.Millisecond {
			t.Fatalf("closed after %v, before the deadline", d)
		}
	})
	t.Run("half a head", func(t *testing.T) {
		s := startResponder(t, 100*time.Millisecond, probe("/readyz", nil))
		c := dial(t, s)
		if _, err := io.WriteString(c, "GET /readyz HTTP/1.1\r\nHost: x\r\n"); err != nil {
			t.Fatal(err)
		}
		if resp, err := io.ReadAll(c); len(resp) != 0 || err != nil {
			t.Fatalf("an unfinished head was answered %q, %v", resp, err)
		}
	})
	t.Run("endless header", func(t *testing.T) {
		s := startResponder(t, time.Minute, probe("/readyz", nil))
		c := dial(t, s)
		head := "GET /readyz HTTP/1.1\r\nX-Pad: "
		if _, err := io.WriteString(c, head); err != nil {
			t.Fatal(err)
		}
		// Dribble exactly to the cap, so that nothing is left unread to turn
		// the close into a reset that could overtake the answer.
		for sent := len(head); sent < maxHead; sent += 64 {
			if _, err := c.Write(bytes.Repeat([]byte{'a'}, min(64, maxHead-sent))); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := io.ReadAll(c)
		if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.1 431 ") {
			t.Fatalf("%d bytes of header answered %q, %v; want 431 and a close", maxHead, resp, err)
		}
	})
	t.Run("a head of exactly the cap", func(t *testing.T) {
		s := startResponder(t, time.Minute, probe("/readyz", nil))
		head := "GET /readyz HTTP/1.1\r\nX-Pad: "
		head += strings.Repeat("a", maxHead-len(head)-4) + "\r\n\r\n"
		if resp := raw(t, s.Addr(), head); !strings.HasPrefix(resp, "HTTP/1.1 200 OK\r\n") {
			t.Fatalf("a %d-byte head answered %q", len(head), resp)
		}
	})
	t.Run("twice the cap of silent peers", func(t *testing.T) {
		s := startResponder(t, time.Minute, probe("/readyz", nil))
		var silent []net.Conn
		for i := 0; i < 2*maxConns; i++ {
			silent = append(silent, dial(t, s))
		}
		for i := 0; i < 3; i++ {
			if resp, body := fetch(t, "GET", "http://"+s.Addr().String()+"/readyz"); resp.StatusCode != 200 || body != "ok\n" {
				t.Fatalf("/readyz = %d %q behind %d silent connections", resp.StatusCode, body, len(silent))
			}
		}
		// The longest open made way, well inside the deadline: all beyond
		// the cap, and one more for the first probe, which left a seat free
		// for the next.
		for i, c := range silent[:maxConns+1] {
			if n, err := c.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("silent connection %d of %d read %d bytes, %v; want to be closed", i, len(silent), n, err)
			}
		}
		newest := silent[len(silent)-1]
		_ = newest.SetDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := newest.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the newest silent connection: %v; want it still open", err)
		}
	})
}

// Close stops the accept loop and cuts what it started, and returns when
// both are done.
func TestResponderCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := startResponder(t, time.Minute, probe("/readyz", nil))
	silent := dial(t, s)
	if resp := raw(t, s.Addr(), "GET /readyz HTTP/1.0\r\n\r\n"); !strings.HasPrefix(resp, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("/readyz answered %q", resp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for each goroutine's last statement, not for its exit.
	for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Serve, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(wait)
	}
	if n, err := silent.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("a connection open at Close read %d bytes, %v; want to be closed", n, err)
	}
	if c, err := net.Dial("tcp", s.Addr().String()); err == nil {
		c.Close()
		t.Fatal("the port still accepts after Close")
	}
}
