//go:build unix

package metrics

import (
	"bytes"
	"syscall"
	"testing"
	"time"
)

// scrapeAllocs is what one /metrics scrape allocates in the process that
// answers it, read exactly, most of it in realnet's Accept. A daemon's
// runtime_heap_allocs_objects_total reads less over a few hundred scrapes
// (TestScrapeCost, make image-check): the runtime counts a small object only
// when its span leaves the P's cache, where ReadMemStats, which AllocsPerRun
// reads, flushes every cache first.
const scrapeAllocs = 14

// TestScrapeAllocs: one /metrics scrape over a loopback listener, from a
// client of raw system calls that allocates nothing, so every object
// AllocsPerRun counts is the responder's.
func TestScrapeAllocs(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 12345
	r.FuncUint("counter", func() uint64 { return n })
	r.Func("ratio", constant(0.75))
	h := NewHistogram()
	h.Observe(time.Millisecond)
	r.RegisterHistogram("lat", h)
	RuntimeInto(r)
	ln, err := ServeHealth("127.0.0.1:0", r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sa := &syscall.SockaddrInet4{Port: int(ln.Addr().Port()), Addr: ln.Addr().Addr().As4()}
	req, resp := []byte("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"), make([]byte, 64<<10)
	var failed error
	scrape := func() {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
		if err != nil {
			failed = err
			return
		}
		defer syscall.Close(fd)
		if err := syscall.Connect(fd, sa); err != nil {
			failed = err
			return
		}
		if _, err := syscall.Write(fd, req); err != nil {
			failed = err
			return
		}
		got := 0
		for got < len(resp) { // to the responder's close
			m, err := syscall.Read(fd, resp[got:])
			if err == syscall.EINTR {
				continue
			}
			if m <= 0 {
				break
			}
			got += m
		}
		if !bytes.HasPrefix(resp[:got], []byte("HTTP/1.1 200 OK\r\n")) || !bytes.Contains(resp[:got], []byte("\r\ncounter 12345\n")) {
			failed = syscall.EPROTO
		}
	}
	for i := 0; i < maxConns; i++ { // every free-list buffer grown to what a scrape needs
		scrape()
	}
	allocs := testing.AllocsPerRun(200, scrape)
	if failed != nil {
		t.Fatalf("scrape: %v", failed)
	}
	if allocs != scrapeAllocs {
		t.Errorf("a /metrics scrape allocated %.0f objects in process, want %d", allocs, scrapeAllocs)
	}
}
