package metrics

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// ServeHealth contract: /healthz and /readyz return 200 "ok" on a nil
// probe result, 503 with the error text otherwise, and the metrics
// endpoints stay mounted alongside them.
func TestHealthHandler(t *testing.T) {
	r := NewRegistry()
	r.Func("probe_series", constant(3))
	healthy := true
	reason := errors.New("keyring epoch 2 behind fleet epoch 3")
	ready := false
	ln, err := ServeHealth("127.0.0.1:0", r,
		func() error {
			if healthy {
				return nil
			}
			return errors.New("closed")
		},
		func() error {
			if ready {
				return nil
			}
			return reason
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "keyring epoch") {
		t.Fatalf("/readyz = %d %q, want 503 with reason", code, body)
	}
	ready = true
	if code, body := get("/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("ready /readyz = %d %q, want 200 ok", code, body)
	}
	healthy = false
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz = %d, want 503", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "probe_series 3") {
		t.Fatalf("/metrics missing under ServeHealth: %d %q", code, body)
	}
	// Nil probes always pass.
	lnNil, err := ServeHealth("127.0.0.1:0", r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lnNil.Close()
	resp, err := http.Get("http://" + lnNil.Addr().String() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nil-probe /readyz = %d, want 200", resp.StatusCode)
	}
}
