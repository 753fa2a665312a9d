package cookie

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The survivability contract: cookies minted before a restart verify after
// the keyring is restored from its state file — across both live epochs —
// and do NOT verify when the restart comes up with a fresh key (the
// regression the state file exists to fix).
func TestKeyringSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	a := keyed(detKey(0))
	rotateWithKey(a, detKey(1)) // current ≠ previous
	if err := writeKeyState(path, a.State()); err != nil {
		t.Fatal(err)
	}

	addrs := detAddrs()
	prevEpoch := make(map[netip.Addr]Cookie, len(addrs))
	curEpoch := make(map[netip.Addr]Cookie, len(addrs))
	for _, src := range addrs {
		curEpoch[src] = a.Mint(src)
	}
	// Cookies from the previous epoch: mint with a ring one rotation back.
	old := keyed(detKey(0))
	for _, src := range addrs {
		prevEpoch[src] = old.Mint(src)
	}

	st, err := ReadKeyState(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Open(Options{State: &st})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != a.Epoch() {
		t.Fatalf("restored epoch = %d, want %d", restored.Epoch(), a.Epoch())
	}
	for _, src := range addrs {
		if !restored.Verify(src, curEpoch[src]) {
			t.Fatalf("current-epoch cookie for %v rejected after restore", src)
		}
		if !restored.Verify(src, prevEpoch[src]) {
			t.Fatalf("previous-epoch cookie for %v rejected after restore", src)
		}
	}

	// Without persistence (fresh random key) the same cookies must die.
	fresh, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, src := range addrs {
		if !fresh.Verify(src, curEpoch[src]) {
			rejected++
		}
	}
	if rejected != len(addrs) {
		t.Fatalf("only %d/%d pre-restart cookies rejected by a fresh key", rejected, len(addrs))
	}
}

func TestBoundRotatePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	a, err := Open(Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("198.51.100.7")
	c0 := a.Mint(src)
	if err := a.Rotate(); err != nil {
		t.Fatal(err)
	}
	c1 := a.Mint(src)

	// A second Open (the restarted daemon) sees the post-rotation
	// ring: both live epochs verify without any explicit save call.
	b, err := Open(Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != 1 {
		t.Fatalf("epoch after reload = %d, want 1", b.Epoch())
	}
	if !b.Verify(src, c1) || !b.Verify(src, c0) {
		t.Fatal("live-epoch cookies rejected after rotate+reload")
	}

	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o600 {
		t.Fatalf("state file mode = %v, want 0600", fi.Mode().Perm())
	}
}

func TestReadKeyStateRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":     "",
		"magic":     "not-a-keyring v9\nepoch 1\nkey-even 00\nkey-odd 00\n",
		"shortkey":  keyStateMagic + "\nepoch 1\nkey-even 0011\nkey-odd 0011\n",
		"badepoch":  keyStateMagic + "\nepoch xyzzy\nkey-even 00\nkey-odd 00\n",
		"missing":   keyStateMagic + "\nepoch 1\n",
		"duplicate": keyStateMagic + "\nepoch 1\nepoch 2\nkey-even 00\n",
	}
	for name, body := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadKeyState(p); err == nil {
			t.Errorf("%s: corrupt state file accepted", name)
		}
	}
}

func TestStateFileRoundTripsExactRing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	a := keyed(detKey(7))
	for i := 0; i < 5; i++ {
		rotateWithKey(a, detKey(10+i))
	}
	if err := writeKeyState(path, a.State()); err != nil {
		t.Fatal(err)
	}
	st, err := ReadKeyState(path)
	if err != nil {
		t.Fatal(err)
	}
	want := a.State()
	if st != want {
		t.Fatalf("round trip mismatch: %+v != %+v", st.Epoch, want.Epoch)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), keyStateMagic+"\n") {
		t.Fatalf("state file missing magic header: %q", blob[:32])
	}
}
