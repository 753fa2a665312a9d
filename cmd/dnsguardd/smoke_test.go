package main

// End-to-end smokes over real loopback sockets: the daemons are built from
// this checkout, booted on kernel-chosen ports read back from their startup
// banners, and judged by what an operator sees — /metrics and dnsq.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const zoneFile = "../../testdata/foo.com.zone"

// buildDaemons compiles the named cmd/ programs into a directory the test owns.
func buildDaemons(t *testing.T, names ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and boots the daemons; skipped under -short")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "dnsguard/cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// proc is a running daemon whose stdout is kept for banner matching and for
// the failure report.
type proc struct {
	cmd *exec.Cmd
	mu  sync.Mutex
	out bytes.Buffer
}

// start runs bin and arranges for it to be killed when the test ends.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		p.kill()
		<-done
	})
	return p
}

// kill is SIGKILL: no drain, no final keyring write — a crash.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// await returns the first submatch of re in the daemon's output, which each
// daemon prints only once the socket it names is bound.
func (p *proc) await(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := rx.FindStringSubmatch(p.output()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("%s never printed %q; output:\n%s", filepath.Base(p.cmd.Path), re, p.output())
	return ""
}

func bootANS(t *testing.T, bin string) string {
	t.Helper()
	ans := start(t, filepath.Join(bin, "ansd"), "-zone", zoneFile, "-listen", "127.0.0.1:0")
	return ans.await(t, ` on (\S+) \(tcp=`)
}

const (
	guardBanner   = `guarding zone \S+ on (\S+) `
	metricsBanner = `metrics on http://(\S+)/metrics`
)

// scrape fetches url and, for /metrics, returns its `name value` lines as a map.
func scrape(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok {
			series[name] = value
		}
	}
	return series
}

// TestMetricsSmoke boots a guarded ANS with -metrics-addr and checks that the
// guard's series are served: end-to-end proof the observability layer is
// wired through the daemon's flags. Then, on a second guard, each kind of
// work the guard counts moves by exactly what a run of dnsq queries costs it.
func TestMetricsSmoke(t *testing.T) {
	bin := buildDaemons(t, "ansd", "dnsguardd", "dnsq")
	ans := bootANS(t, bin)
	guard := start(t, filepath.Join(bin, "dnsguardd"), "-listen", "127.0.0.1:0", "-ans", ans, "-zone", "foo.com",
		"-shards", "2", "-mitigate", "-metrics-addr", "127.0.0.1:0", "-stats", "0")
	base := "http://" + guard.await(t, metricsBanner)

	series := scrape(t, base+"/metrics")
	for _, name := range []string{
		"guard_remote_received", "guard_remote_cookie_valid", "guard_remote_upstream_spoofed",
		"guard_remote_rl1_dropped", "tcpproxy_accepted", "guard_remote_pending",
		"guard_engine_shards", "guard_engine_handled", "guard_engine_shed_new",
		"guard_engine_queue_depth", "guard_engine_shard1_handled",
		"guard_mitigation_layer", "guard_mitigation_escalations",
	} {
		if _, ok := series[name]; !ok {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	if got := series["guard_engine_shards"]; got != "2" {
		t.Errorf("guard_engine_shards = %q under -shards 2", got)
	}
	if got := series["guard_mitigation_enabled"]; got != "1" {
		t.Errorf("guard_mitigation_enabled = %q under -mitigate", got)
	}
	scrape(t, base+"/debug/vars")

	// n modified-scheme queries on one cookie file: the first obtains the
	// cookie (message 2, a grant); each query is verified by its own MAC,
	// rewritten, forwarded and its answer relayed. Then an apex query, which
	// is redirected to TCP.
	const n = 4
	guard = start(t, filepath.Join(bin, "dnsguardd"), "-listen", "127.0.0.1:0", "-ans", ans, "-zone", "foo.com",
		"-metrics-addr", "127.0.0.1:0", "-stats", "0")
	addr, base := guard.await(t, guardBanner), "http://"+guard.await(t, metricsBanner)
	before, cookieFile := scrape(t, base+"/metrics"), filepath.Join(t.TempDir(), "cookie")
	for i := 0; i <= n; i++ {
		args := []string{"-server", addr, "-timeout", "2s", "-cookie-file", cookieFile, "www.foo.com", "A"}
		if i == n {
			args = []string{"-server", addr, "-timeout", "2s", "foo.com", "SOA"}
		}
		if out, err := exec.Command(filepath.Join(bin, "dnsq"), args...).CombinedOutput(); err != nil {
			t.Fatalf("dnsq %v: %v\n%s", args, err, out)
		}
	}
	after := scrape(t, base+"/metrics")
	for name, want := range map[string]int{"guard_work_read": 2*n + 2, "guard_work_written": 2*n + 2,
		"guard_work_checks": n, "guard_work_grants": 1, "guard_work_tc_replies": 1, "guard_work_rewrites": n} {
		b, errB := strconv.Atoi(before[name])
		a, errA := strconv.Atoi(after[name])
		if errB != nil || errA != nil || a-b != want {
			t.Errorf("%s went from %q to %q; want a move of %d", name, before[name], after[name], want)
		}
	}
}

// TestMetricsAddrLiteral: -metrics-addr is an ip:port, like -listen. No
// daemon resolves a name, so a host name stops each one at start-up with an
// error that names the flag.
func TestMetricsAddrLiteral(t *testing.T) {
	bin := buildDaemons(t, "ansd", "dnsguardd", "lrsd")
	for _, args := range [][]string{
		{"ansd", "-zone", zoneFile, "-listen", "127.0.0.1:0"},
		{"dnsguardd", "-listen", "127.0.0.1:0", "-ans", "127.0.0.1:9", "-zone", "foo.com", "-stats", "0"},
		{"lrsd", "-listen", "127.0.0.1:0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(bin, args[0]), append(args[1:], "-metrics-addr", "localhost:9090")...).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), "-metrics-addr") {
			t.Errorf("%s -metrics-addr localhost:9090: %v; want a start-up error naming the flag, output:\n%s", args[0], err, out)
		}
	}
}

// TestCrashRestartSmoke is the end-to-end check behind DESIGN.md §11: obtain
// a cookie through a guard with a persisted keyring, SIGKILL the guard,
// restart it on the same -state-file and address, and the pre-crash cookie
// still verifies on the new process.
func TestCrashRestartSmoke(t *testing.T) {
	bin := buildDaemons(t, "ansd", "dnsguardd", "dnsq")
	ans := bootANS(t, bin)
	dir := t.TempDir()
	keyring, cookieFile := filepath.Join(dir, "keyring"), filepath.Join(dir, "cookie")
	query := func(server, when string) {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, "dnsq"), "-server", server, "-timeout", "2s",
			"-cookie-file", cookieFile, "www.foo.com", "A").CombinedOutput()
		if err != nil {
			t.Fatalf("%s query failed: %v\n%s", when, err, out)
		}
	}

	guard := start(t, filepath.Join(bin, "dnsguardd"), "-listen", "127.0.0.1:0", "-ans", ans, "-zone", "foo.com",
		"-state-file", keyring, "-stats", "0")
	addr := guard.await(t, guardBanner)
	query(addr, "pre-crash")
	if st, err := os.Stat(cookieFile); err != nil || st.Size() == 0 {
		t.Fatalf("no cookie cached: %v", err)
	}
	guard.kill()

	guard = start(t, filepath.Join(bin, "dnsguardd"), "-listen", addr, "-ans", ans, "-zone", "foo.com",
		"-state-file", keyring, "-metrics-addr", "127.0.0.1:0", "-stats", "0")
	base := "http://" + guard.await(t, metricsBanner)
	query(addr, "post-restart")
	if got := scrape(t, base+"/metrics")["guard_remote_cookie_valid"]; got == "" || got == "0" {
		t.Errorf("guard_remote_cookie_valid = %q after restart: the pre-crash cookie did not verify", got)
	}
}

// TestKeyRotateBoots: a rotation period under a minute is a deployment like
// any other. dnsguardd once refused -key-rotate 30s at start-up, because the
// verified credentials it kept for a minute by default would have outlived
// the key ring; now every cookie pays its MAC, and a cookie query through
// the guard is answered.
func TestKeyRotateBoots(t *testing.T) {
	bin := buildDaemons(t, "ansd", "dnsguardd", "dnsq")
	ans := bootANS(t, bin)
	guard := start(t, filepath.Join(bin, "dnsguardd"), "-listen", "127.0.0.1:0", "-ans", ans, "-zone", "foo.com",
		"-stats", "0", "-key-rotate", "30s")
	addr := guard.await(t, guardBanner)
	out, err := exec.Command(filepath.Join(bin, "dnsq"), "-server", addr, "-timeout", "2s",
		"-cookie-file", filepath.Join(t.TempDir(), "cookie"), "www.foo.com", "A").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "198.51.100.10") {
		t.Errorf("dnsq through dnsguardd -key-rotate 30s: %v\n%s", err, out)
	}
}

// ctxtSwitches sums the voluntary and involuntary context switches of every
// thread of pid, from /proc/<pid>/task/*/status.
func ctxtSwitches(t *testing.T, pid int) int {
	t.Helper()
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(files) == 0 {
		t.Fatalf("no thread status under /proc/%d: %v", pid, err)
	}
	total := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		for _, line := range strings.Split(string(b), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.HasSuffix(name, "ctxt_switches") {
				n, err := strconv.Atoi(strings.TrimSpace(value))
				if err != nil {
					t.Fatalf("%s: %q", f, line)
				}
				total += n
			}
		}
	}
	return total
}

// TestIdleShardsSleep: a multi-shard guard nobody is talking to does nothing.
// Each shard blocks in the read on its own SO_REUSEPORT socket; when shards
// polled a 10 ms read deadline instead, two of them made about 580 context
// switches a second between them.
func TestIdleShardsSleep(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/<pid>/task/*/status")
	}
	bin := buildDaemons(t, "dnsguardd")
	guard := start(t, filepath.Join(bin, "dnsguardd"), "-listen", "127.0.0.1:0", "-ans", "127.0.0.1:9", "-zone", "foo.com",
		"-shards", "2", "-stats", "0")
	guard.await(t, guardBanner)
	if !strings.Contains(guard.output(), "shards 2, batch 1, ingest direct)") {
		t.Fatalf("two SO_REUSEPORT sockets for two shards are not read directly; output:\n%s", guard.output())
	}
	time.Sleep(200 * time.Millisecond) // start-up settles: the proxy binds, the runtime parks its threads
	before := ctxtSwitches(t, guard.cmd.Process.Pid)
	time.Sleep(2 * time.Second)
	if n := ctxtSwitches(t, guard.cmd.Process.Pid) - before; n >= 50 {
		t.Errorf("idle dnsguardd -shards 2 made %d context switches in 2 s, want under 50", n)
	}
}
