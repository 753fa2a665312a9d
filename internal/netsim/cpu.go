package netsim

import (
	"time"

	"dnsguard/internal/vclock"
)

// CPU models a single serialized processor shared by all procs on a host.
// Work reserves the next available slot on the CPU's timeline and sleeps the
// calling proc until that work completes, so concurrent procs (e.g. many TCP
// proxy connections) correctly contend for one processor. Busy time is
// accumulated for utilization measurements.
type CPU struct {
	sched     *vclock.Scheduler
	busyUntil time.Duration
	prioUntil time.Duration
	busy      time.Duration
}

func newCPU(s *vclock.Scheduler) *CPU { return &CPU{sched: s} }

// Work charges d of CPU time and blocks the calling proc until the work
// completes (including any queueing behind earlier work).
func (c *CPU) Work(d time.Duration) {
	if d <= 0 {
		return
	}
	now := c.sched.Now()
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + d
	c.busy += d
	c.sched.Sleep(c.busyUntil - now)
}

// WorkPreempt charges d of CPU time at interrupt priority: the packet
// datapath (the guard's capture loops) runs in softirq context on the
// paper's Linux testbed and preempts userspace work. Priority work
// serializes only against other priority work — its throughput is bounded
// by its own cost — while every charged instant is also stolen from the
// normal Work timeline, so ordinary jobs (e.g. the TCP proxy) get exactly
// the leftover CPU.
func (c *CPU) WorkPreempt(d time.Duration) {
	if d <= 0 {
		return
	}
	now := c.sched.Now()
	start := now
	if c.prioUntil > start {
		start = c.prioUntil
	}
	c.prioUntil = start + d
	c.busy += d
	// Steal the same amount from the normal timeline.
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += d
	c.sched.Sleep(c.prioUntil - now)
}

// TryWork behaves like Work but refuses (returning false, charging nothing)
// when the CPU's backlog already exceeds maxBacklog — modelling a bounded
// service queue with tail drop.
func (c *CPU) TryWork(d, maxBacklog time.Duration) bool {
	if backlog := c.busyUntil - c.sched.Now(); backlog > maxBacklog {
		return false
	}
	c.Work(d)
	return true
}

// Account charges d of CPU time without blocking the caller. It is used on
// fast paths where the caller immediately continues (the queueing effect is
// modelled by the socket queue instead).
func (c *CPU) Account(d time.Duration) {
	if d <= 0 {
		return
	}
	now := c.sched.Now()
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + d
	c.busy += d
}

// BusyTime returns the total CPU time consumed so far.
func (c *CPU) BusyTime() time.Duration { return c.busy }

// UtilizationMeter samples a CPU's busy time over an interval.
type UtilizationMeter struct {
	cpu       *CPU
	lastBusy  time.Duration
	lastStamp time.Duration
}

// NewUtilizationMeter starts measuring cpu from the current instant.
func NewUtilizationMeter(cpu *CPU) *UtilizationMeter {
	return &UtilizationMeter{cpu: cpu, lastBusy: cpu.busy, lastStamp: cpu.sched.Now()}
}

// Sample returns the fraction of time the CPU was busy since the previous
// Sample (or since construction) and resets the window. The result is capped
// at 1.0.
func (m *UtilizationMeter) Sample() float64 {
	now := m.cpu.sched.Now()
	dt := now - m.lastStamp
	db := m.cpu.busy - m.lastBusy
	m.lastStamp, m.lastBusy = now, m.cpu.busy
	if dt <= 0 {
		return 0
	}
	u := float64(db) / float64(dt)
	if u > 1 {
		u = 1
	}
	return u
}
