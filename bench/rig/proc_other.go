//go:build !linux

package rig

import (
	"errors"
	"net/netip"
)

// Supported reports whether this platform has /proc, CPU affinity and
// process groups the way the rig uses them.
const Supported = false

// ErrUnsupported is returned by every process operation on this platform.
var ErrUnsupported = errors.New("unsupported platform: the rig needs Linux /proc and sched_setaffinity")

// The types below keep the package building; Boot always fails, so no
// method on them is ever reached.
type (
	Child struct{ Name string }
	Stack struct {
		Ans, Guard               *Child
		AnsAddr, GuardAddr       netip.AddrPort
		AnsMetrics, GuardMetrics string
		GuardCPUs, SharedCPUs    []int
	}
	BootConfig struct {
		BinDir, Zone          string
		GuardFlags            []string
		GuardCPUs, SharedCPUs []int
	}
	ProcSample struct {
		RunNS, UserTick, SysTick, CtxSw int64
	}
	HostSample struct {
		Total, Steal int64
		PerCPUSteal  []int64
	}
)

// SpinArg is the argument that turns this binary into an idle spinner.
const SpinArg = "-spin"

// Spinners is a placeholder; StartSpinners always fails here.
type Spinners struct{}

func Spin()                                    {}
func StartSpinners([]int) (*Spinners, error)   { return nil, ErrUnsupported }
func (sp *Spinners) IdleNS() ([]int64, error)  { return nil, ErrUnsupported }
func (sp *Spinners) CPUs() []int               { return nil }
func (sp *Spinners) Close() error              { return nil }
func (c *Child) PID() int                      { return 0 }
func KillAll()                                 {}
func PinSelf([]int) error                      { return ErrUnsupported }
func Build(string, string) error               { return ErrUnsupported }
func Boot(BootConfig) (*Stack, error)          { return nil, ErrUnsupported }
func (s *Stack) Err() error                    { return ErrUnsupported }
func (s *Stack) Close() error                  { return nil }
func SampleProc(int, bool) (ProcSample, error) { return ProcSample{}, ErrUnsupported }
func PeakRSSMB(int) (float64, error)           { return 0, ErrUnsupported }
func SampleHost() (HostSample, error)          { return HostSample{}, ErrUnsupported }
