package main

import (
	"debug/elf"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestImagePinned keeps the daemons' binaries — two-thirds of the guard's
// resident memory — clear of the HTTP/TLS stack: a new endpoint is a row in
// internal/metrics' responder table, not an import of net/http. On Linux
// amd64 and arm64, where realnet opens its sockets with syscall, it also
// keeps out the net package, whose cgo resolver links libc and ld.so into a
// default build (DESIGN.md §19): dnsguardd built as `go build` builds it
// must be static. There, too, it keeps out the FIPS 140-3 module that
// crypto/md5 and crypto/rand import (the cookie MAC and its keys are
// in-tree), all but the alias and subtle packages crypto/subtle needs, and
// it keeps fmt, flag and reflect unlinked (DESIGN.md §19).
func TestImagePinned(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	native := runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
	banned := func(pkg string) bool {
		switch pkg {
		case "crypto/tls", "crypto/x509", "encoding/json", "mime", "compress/gzip":
			return true
		case "net", "runtime/cgo", "vendor/golang.org/x/net/dns/dnsmessage",
			"crypto/md5", "crypto/rand", "math/big":
			return native
		case "crypto/internal/fips140/alias", "crypto/internal/fips140/subtle":
			return false
		}
		if strings.HasPrefix(pkg, "crypto/internal/fips140") {
			return native
		}
		return pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") ||
			strings.HasPrefix(pkg, "vendor/golang.org/x/net/http")
	}
	for _, daemon := range []string{"dnsguardd", "ansd", "lrsd"} {
		out, err := exec.Command("go", "list", "-deps", "dnsguard/cmd/"+daemon).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", daemon, err)
		}
		deps := strings.Fields(string(out))
		for _, pkg := range deps {
			if banned(pkg) {
				t.Errorf("%s links %s", daemon, pkg)
			}
		}
		t.Logf("%s: %d packages", daemon, len(deps))
	}
	if !native {
		return
	}
	f, err := elf.Open(filepath.Join(buildDaemons(t, "dnsguardd"), "dnsguardd"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, p := range f.Progs {
		if p.Type == elf.PT_INTERP {
			interp, _ := io.ReadAll(p.Open())
			t.Errorf("dnsguardd asks for an interpreter, %s: it is linked dynamically", strings.TrimRight(string(interp), "\x00"))
		}
	}
	// What dnsguardd links, not only what it imports: encoding/binary and
	// encoding/hex import reflect and fmt, and the linker drops all of those
	// but reflect's package init. A start-up error or a stats name that goes
	// through fmt or reflect again brings back about 95 KB of them.
	syms, err := f.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]uint64{}
	total := uint64(0)
	for _, s := range syms {
		for _, pkg := range []string{"fmt.", "flag.", "internal/fmtsort.", "reflect."} {
			if strings.HasPrefix(s.Name, pkg) {
				linked[pkg] += s.Size
				total += s.Size
			}
		}
	}
	t.Logf("dnsguardd links %d bytes of fmt, flag, internal/fmtsort and reflect", total)
	if total > imageFmtBudget {
		t.Errorf("dnsguardd links %d bytes of fmt, flag, internal/fmtsort and reflect (%v), want <= %d", total, linked, imageFmtBudget)
	}
}

// imageFmtBudget bounds the bytes of fmt, flag, internal/fmtsort and reflect
// symbols in dnsguardd: reflect's package init is 277 of them.
const imageFmtBudget = 512

// TestProductSimulatorFree keeps what a deployment runs apart from what only
// simulations and experiments run: no daemon depends on the simulator, its
// clock, its cost model, or the harnesses above them. A simulated tap is
// handed to the guard as a PacketIO, and a simulated guard's CPU is charged
// by a meter around it (workload.GuardMeter), so the guard names neither.
func TestProductSimulatorFree(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	args := []string{"list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}"}
	for _, d := range []string{"dnsguardd", "ansd", "lrsd"} {
		args = append(args, "dnsguard/cmd/"+d)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		deps := strings.Fields(line)
		for _, dep := range deps[1:] {
			switch strings.TrimPrefix(dep, "dnsguard/internal/") {
			case "netsim", "tcpsim", "vclock", "cpumodel", "workload", "fleet", "experiments":
				t.Errorf("%s depends on %s", deps[0], dep)
			}
		}
	}
}
