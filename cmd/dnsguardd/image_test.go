package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImagePinned keeps the daemons' binaries — two-thirds of the guard's
// resident memory — clear of the HTTP/TLS stack: a new endpoint is a row in
// internal/metrics' responder table, not an import of net/http.
func TestImagePinned(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	banned := func(pkg string) bool {
		switch pkg {
		case "crypto/tls", "crypto/x509", "encoding/json", "mime", "compress/gzip":
			return true
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
}
