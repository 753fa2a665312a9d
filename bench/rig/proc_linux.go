//go:build linux

package rig

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Supported reports whether this platform has /proc, CPU affinity and
// process groups the way the rig uses them.
const Supported = true

// cpuSet is a kernel CPU mask covering 1024 CPUs.
type cpuSet [16]uint64

func maskOf(cpus []int) cpuSet {
	var m cpuSet
	for _, c := range cpus {
		if c >= 0 && c < len(m)*64 {
			m[c/64] |= 1 << (uint(c) % 64)
		}
	}
	return m
}

func setAffinity(tid int, m *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

func getAffinity(tid int, m *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// PinSelf restricts every thread of this process to cpus. Threads the
// runtime creates later inherit the mask of the thread that clones them, and
// by then every thread carries it.
func PinSelf(cpus []int) error {
	m := maskOf(cpus)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, &m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// tail keeps the last bytes a child wrote, for the error report when it dies.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 16 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailMax:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// Child is one daemon process in its own process group.
type Child struct {
	Name   string
	cmd    *exec.Cmd
	out    tail
	exited chan struct{}
	err    error
}

// PID is the child's process ID.
func (c *Child) PID() int { return c.cmd.Process.Pid }

// live is the set of process groups this process must not outlive: every
// exit path — return, panic, signal — goes through KillAll.
var live struct {
	mu    sync.Mutex
	pgids map[int]bool
}

// KillAll kills every process group the rig started and is still tracking.
func KillAll() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for pgid := range live.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
	}
}

// startPinned starts cmd in a new process group with its affinity already
// set: the forking thread takes the mask first, the child inherits it across
// fork and exec, and so does every thread the child's runtime creates.
func startPinned(c *Child, cpus []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuSet
	pinned := len(cpus) > 0 && getAffinity(0, &old) == nil
	if pinned {
		m := maskOf(cpus)
		if err := setAffinity(0, &m); err != nil {
			pinned = false
		}
	}
	// Pdeathsig covers the one exit KillAll cannot: this process being
	// SIGKILLed. It fires when the forking thread ends, and the runtime never
	// ends a thread that was unlocked again, so it means "when we die".
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	err := c.cmd.Start()
	if pinned {
		_ = setAffinity(0, &old)
	}
	if err != nil {
		return err
	}
	live.mu.Lock()
	if live.pgids == nil {
		live.pgids = make(map[int]bool)
	}
	live.pgids[c.PID()] = true
	live.mu.Unlock()
	c.exited = make(chan struct{})
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	return nil
}

// kill ends the child's process group and waits for the child; it reports
// whether anything in the group survived.
func (c *Child) kill() error {
	pgid := c.PID()
	_ = syscall.Kill(-pgid, syscall.SIGKILL)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("%s (pid %d) did not exit after SIGKILL", c.Name, pgid)
	}
	// The leader is reaped; anything else still in the group is a leak.
	for i := 0; i < 50; i++ {
		if err := syscall.Kill(-pgid, 0); errors.Is(err, syscall.ESRCH) {
			live.mu.Lock()
			delete(live.pgids, pgid)
			live.mu.Unlock()
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s: process group %d still has members after SIGKILL", c.Name, pgid)
}

// SpinArg is the argument that turns this binary into an idle spinner.
const SpinArg = "-spin"

// Spin never returns: it drops the calling thread to SCHED_IDLE and burns
// whatever CPU nothing else wants. Run as a child pinned to one core (see
// StartSpinners).
func Spin() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param [1]int32 // struct sched_param{sched_priority: 0}
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	for {
	}
}

// Spinners are the idle spinners, one per core.
type Spinners struct {
	kids []*Child
	cpus []int
}

// IdleNS reads how long each core has had nothing else to do: a spinner
// runs exactly when its core would otherwise be idle, and its run time has
// nanosecond resolution. The result is indexed like the cpus StartSpinners
// was given.
func (sp *Spinners) IdleNS() ([]int64, error) {
	out := make([]int64, len(sp.kids))
	for i, k := range sp.kids {
		ps, err := SampleProc(k.PID(), false)
		if err != nil {
			return nil, err
		}
		out[i] = ps.RunNS
	}
	return out, nil
}

// CPUs is the core of each spinner, in IdleNS order.
func (sp *Spinners) CPUs() []int { return sp.cpus }

// StartSpinners starts one SCHED_IDLE busy loop on each of cpus. A guest
// whose vCPU goes idle executes HLT, the hypervisor takes the core away, and
// the next wake-up costs a trip through the host — cheap or dear depending
// on the host's adaptive halt-polling, which flips between regimes on the
// scale of seconds (measured here: ansd's CPU per query 27 µs in one regime
// and 77 µs in the other, p50 latency 130 µs and 480 µs). With a spinner
// under every real task the vCPU never halts: a wake-up is a guest context
// switch, the same every time, and what is measured is the guest's own cost —
// the part a change to this repository can move. The spinner yields to any
// runnable task at once (SCHED_IDLE) and is a separate process, so it is in
// no measured process's CPU time.
func StartSpinners(cpus []int) (*Spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sp := &Spinners{cpus: cpus}
	for _, c := range cpus {
		k := &Child{Name: fmt.Sprintf("spinner-cpu%d", c), cmd: exec.Command(self, SpinArg)}
		if err := startPinned(k, []int{c}); err != nil {
			_ = sp.Close()
			return nil, fmt.Errorf("starting %s: %w", k.Name, err)
		}
		sp.kids = append(sp.kids, k)
	}
	return sp, nil
}

// Close kills the spinners and reports a leak.
func (sp *Spinners) Close() error {
	var first error
	for _, k := range sp.kids {
		if err := k.kill(); err != nil && first == nil {
			first = err
		}
	}
	sp.kids = nil
	return first
}

// Build compiles ansd and dnsguardd from the repository at root into dir.
// VCS stamping is off so that a git clone and a plain copy of the same
// sources build the same binaries in the same time (stamping shells out to
// git status).
func Build(root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", dir+string(filepath.Separator), "./cmd/ansd", "./cmd/dnsguardd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, bytes.TrimSpace(out))
	}
	return nil
}

// Stack is a booted ansd + dnsguardd pair.
type Stack struct {
	Ans, Guard               *Child
	AnsAddr, GuardAddr       netip.AddrPort
	AnsMetrics, GuardMetrics string
	GuardCPUs, SharedCPUs    []int
	closeOnce                sync.Once
	closeErr                 error
}

// freePorts asks the kernel for n loopback ports free on both UDP and TCP.
// They are released before the daemons bind them; Boot retries on the rare
// loss of that race.
func freePorts(n int) ([]uint16, error) {
	var ports []uint16
	var held []interface{ Close() error }
	defer func() {
		for _, h := range held {
			_ = h.Close()
		}
	}()
	for len(ports) < n {
		u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		held = append(held, u)
		port := u.LocalAddr().(*net.UDPAddr).Port
		t, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		if err != nil {
			continue
		}
		held = append(held, t)
		ports = append(ports, uint16(port))
	}
	return ports, nil
}

// BootConfig says what to boot and where to pin it.
type BootConfig struct {
	BinDir     string
	Zone       string   // zone file for ansd
	GuardFlags []string // appended to the fixed rig flags
	GuardCPUs  []int    // the guard's core; empty leaves it unpinned
	SharedCPUs []int    // ansd's (and the generator's) cores
}

// Boot starts ansd and dnsguardd on fresh loopback ports and waits until
// both serve /metrics, which each does only after its UDP socket is bound.
func Boot(cfg BootConfig) (*Stack, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := boot(cfg)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func boot(cfg BootConfig) (*Stack, error) {
	ports, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	lo := netip.AddrFrom4([4]byte{127, 0, 0, 1})
	s := &Stack{
		AnsAddr:      netip.AddrPortFrom(lo, ports[0]),
		GuardAddr:    netip.AddrPortFrom(lo, ports[1]),
		AnsMetrics:   fmt.Sprintf("http://127.0.0.1:%d/metrics", ports[2]),
		GuardMetrics: fmt.Sprintf("http://127.0.0.1:%d/metrics", ports[3]),
		GuardCPUs:    cfg.GuardCPUs,
		SharedCPUs:   cfg.SharedCPUs,
	}
	start := func(name string, cpus []int, args ...string) (*Child, error) {
		c := &Child{Name: name, cmd: exec.Command(filepath.Join(cfg.BinDir, name), args...)}
		c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
		if err := startPinned(c, cpus); err != nil {
			return nil, fmt.Errorf("starting %s: %w", name, err)
		}
		return c, nil
	}
	s.Ans, err = start("ansd", cfg.SharedCPUs,
		"-zone", cfg.Zone, "-listen", s.AnsAddr.String(), "-tcp=false",
		"-metrics-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]))
	if err != nil {
		return nil, err
	}
	guardArgs := append([]string{
		"-listen", s.GuardAddr.String(), "-ans", s.AnsAddr.String(), "-zone", "foo.com",
		"-shards", "1", "-batch", "32", "-scheme", "dns", "-proxy=false", "-stats", "0",
		"-metrics-addr", fmt.Sprintf("127.0.0.1:%d", ports[3]),
	}, cfg.GuardFlags...)
	s.Guard, err = start("dnsguardd", cfg.GuardCPUs, guardArgs...)
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, url := range []string{s.AnsMetrics, s.GuardMetrics} {
		for {
			if err := s.Err(); err != nil {
				_ = s.Close()
				return nil, err
			}
			if _, err := Scrape(url); err == nil {
				break
			}
			if time.Now().After(deadline) {
				_ = s.Close()
				return nil, fmt.Errorf("%s not serving after 5s", url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return s, nil
}

// Err reports a child that died: the run it was serving is void, and its
// last output says why.
func (s *Stack) Err() error {
	for _, c := range []*Child{s.Ans, s.Guard} {
		if c == nil {
			continue
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s died mid-run (%v); last output:\n%s", c.Name, c.err, c.out.String())
		default:
		}
	}
	return nil
}

// Close kills both process groups, waits for them, and reports a leak.
func (s *Stack) Close() error {
	s.closeOnce.Do(func() {
		for _, c := range []*Child{s.Guard, s.Ans} {
			if c == nil {
				continue
			}
			if err := c.kill(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// ProcSample is one reading of a process's CPU accounting.
type ProcSample struct {
	RunNS    int64 // on-CPU time summed over threads (schedstat), ns
	UserTick int64 // utime, clock ticks
	SysTick  int64 // stime, clock ticks
	CtxSw    int64 // voluntary + involuntary context switches over threads (tasks only)
}

// tickNS is one /proc clock tick (USER_HZ is 100 on every Linux ABI).
const tickNS = 10_000_000

// SampleProc reads pid's CPU time. The per-thread schedstat sum has
// nanosecond resolution where the tick counters have 10 ms; tasks also
// walks every thread's status for context switches (the traced run).
func SampleProc(pid int, tasks bool) (ProcSample, error) {
	var ps ProcSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, the 12th and 13th after the name.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ps.UserTick, _ = strconv.ParseInt(f[11], 10, 64)
	ps.SysTick, _ = strconv.ParseInt(f[12], 10, 64)

	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return ps, err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err == nil {
			if sp := bytes.IndexByte(b, ' '); sp > 0 {
				ns, _ := strconv.ParseInt(string(b[:sp]), 10, 64)
				ps.RunNS += ns
			}
		}
		if !tasks {
			continue
		}
		st, err := os.ReadFile(filepath.Join(dir, e.Name(), "status"))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(st), "\n") {
			if strings.HasPrefix(line, "voluntary_ctxt_switches:") || strings.HasPrefix(line, "nonvoluntary_ctxt_switches:") {
				n, _ := strconv.ParseInt(strings.TrimSpace(line[strings.IndexByte(line, ':')+1:]), 10, 64)
				ps.CtxSw += n
			}
		}
	}
	if ps.RunNS == 0 {
		ps.RunNS = (ps.UserTick + ps.SysTick) * tickNS
	}
	return ps, nil
}

// PeakRSSMB is pid's resident-set high-water mark (VmHWM) in MiB.
func PeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// HostSample is one reading of the host-wide CPU counters, in clock ticks.
type HostSample struct {
	Total, Steal int64
	PerCPUSteal  []int64 // steal per CPU, indexed by CPU number
}

// SampleHost reads /proc/stat.
func SampleHost() (HostSample, error) {
	var hs HostSample
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hs, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		var v [8]int64 // user nice system idle iowait irq softirq steal
		var total int64
		for i := range v {
			v[i], _ = strconv.ParseInt(f[1+i], 10, 64)
			total += v[i]
		}
		if f[0] == "cpu" {
			hs.Total, hs.Steal = total, v[7]
			continue
		}
		hs.PerCPUSteal = append(hs.PerCPUSteal, v[7])
	}
	if hs.Total == 0 {
		return hs, errors.New("/proc/stat: no cpu line")
	}
	return hs, nil
}
