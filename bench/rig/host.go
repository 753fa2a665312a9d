package rig

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host is what a number needs beside it to mean anything later: the machine,
// the toolchain, the commit, where the processes were pinned, and the seed.
type Host struct {
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	Kernel      string `json:"kernel"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Affinity    string `json:"affinity"`
	RmemDefault string `json:"rmem_default"`
	Seed        uint64 `json:"seed"`
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// DescribeHost gathers the metadata; anything unreadable says "unknown"
// rather than failing the run (the driver's checkout is not a git clone).
func DescribeHost(root string, guardCPUs, sharedCPUs []int, seed uint64) Host {
	h := Host{
		CPUModel:    "unknown",
		NProc:       runtime.NumCPU(),
		Kernel:      readTrim("/proc/sys/kernel/osrelease"),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
		Affinity:    fmt.Sprintf("dnsguardd=%v ansd+generator=%v", guardCPUs, sharedCPUs),
		RmemDefault: readTrim("/proc/sys/net/core/rmem_default"),
		Seed:        seed,
	}
	if len(guardCPUs) == 0 {
		h.Affinity = "unpinned"
	}
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// String is the one-line form printed above each workload's rows.
func (h Host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d kernel=%s go=%s commit=%s affinity=%q rmem_default=%s seed=%d",
		h.CPUModel, h.NProc, h.Kernel, h.GoVersion, h.Commit, h.Affinity, h.RmemDefault, h.Seed)
}
