package cookie

// Crash-during-rotate coverage: a site killed between Rotate's in-memory
// epoch bump and the state persist (or between the main-file write and the
// replica refresh) must come back with a monotone epoch and keep verifying
// old-epoch cookies inside the grace window. These tests simulate each
// crash point by manipulating the on-disk files directly, then reopen with
// Open exactly as a restarted daemon would.

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// crashSrc is the client whose cookies thread through the restart.
var crashSrc = netip.MustParseAddr("198.51.100.42")

// TestRotatePersistFailureRollsBack pins the ordering contract: when the
// state write fails, Rotate reports the error and the live ring is NOT
// advanced — so a crash "between Rotate and persist" cannot exist; the
// epoch only moves once the new ring is durable.
func TestRotatePersistFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "keyring")
	if err := os.Mkdir(filepath.Dir(path), 0o700); err != nil {
		t.Fatal(err)
	}
	a, err := Open(Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	c0 := a.Mint(crashSrc)
	// Make the persist fail: remove the directory the tmp file lands in.
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	if err := a.Rotate(); err == nil {
		t.Fatal("Rotate succeeded with an unwritable state dir")
	}
	if a.Epoch() != 0 {
		t.Fatalf("epoch advanced to %d despite persist failure", a.Epoch())
	}
	if !a.Verify(crashSrc, c0) {
		t.Fatal("pre-failure cookie no longer verifies after rolled-back rotate")
	}
}

// TestReloadReportsPersistFailure is Rotate's ordering contract for
// Reload: when the adopted ring cannot be persisted, Reload returns the
// error and the live ring stays as it was. The handle follows the owner's
// file and is bound to a second one, so the read succeeds and the persist
// fails for any user, root included.
func TestReloadReportsPersistFailure(t *testing.T) {
	dir := t.TempDir()
	owned := filepath.Join(dir, "keyring")
	owner, err := Open(Options{StateFile: owned})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(Options{StateFile: owned, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	bound := filepath.Join(dir, "sub", "keyring")
	if err := os.Mkdir(filepath.Dir(bound), 0o700); err != nil {
		t.Fatal(err)
	}
	if err := a.BindStateFile(bound); err != nil {
		t.Fatal(err)
	}
	c0 := a.Mint(crashSrc)
	if err := owner.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(bound)); err != nil {
		t.Fatal(err)
	}
	if err := a.Reload(); err == nil {
		t.Fatal("Reload succeeded with an unwritable state dir")
	}
	if a.Epoch() != 0 || a.Mint(crashSrc) != c0 || !a.Verify(crashSrc, c0) {
		t.Fatalf("live ring changed despite the failed persist (epoch %d)", a.Epoch())
	}

	// A state behind the live ring is still ignored without error.
	b, err := Open(Options{StateFile: owned, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Adopt(KeyState{Epoch: 9}) {
		t.Fatal("Adopt refused a newer epoch")
	}
	if err := b.Reload(); err != nil || b.Epoch() != 9 {
		t.Fatalf("Reload of a stale state: err %v, epoch %d; want nil, 9", err, b.Epoch())
	}
}

// TestCrashBetweenMainAndReplica kills the site after the main state file
// committed epoch N+1 but before the .bak replica caught up (still at N).
// The reopened ring must carry epoch N+1 (monotone) and still verify the
// epoch-N cookie through the grace window.
func TestCrashBetweenMainAndReplica(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keyring")
	a := keyed(detKey(0))
	if err := a.BindStateFile(path); err != nil {
		t.Fatal(err)
	}
	cOld := a.Mint(crashSrc)
	stale, err := os.ReadFile(path + keyStateBackup)
	if err != nil {
		t.Fatal(err)
	}
	rotateWithKey(a, detKey(1))
	if err := writeKeyState(path, a.State()); err != nil {
		t.Fatal(err)
	}
	cNew := a.Mint(crashSrc)
	// Crash point: replica never refreshed — restore the stale epoch-0 copy.
	if err := os.WriteFile(path+keyStateBackup, stale, 0o600); err != nil {
		t.Fatal(err)
	}

	b, err := Open(Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != 1 {
		t.Fatalf("epoch after reopen = %d, want 1 (monotone)", b.Epoch())
	}
	if !b.Verify(crashSrc, cNew) {
		t.Fatal("current-epoch cookie rejected after reopen")
	}
	if !b.Verify(crashSrc, cOld) {
		t.Fatal("previous-epoch cookie rejected inside the grace window")
	}
}

// TestCorruptMainRecoversFromReplica torches the main file in several ways
// (truncation, bit flip caught by the checksum, garbage) and checks
// Open recovers the ring from the replica instead of failing or —
// worse — minting fresh keys. The replica trails by one rotation, so the
// recovered epoch is N while the latest was N+1; cookies minted under N
// (the population's grace-window credentials) must verify.
func TestCorruptMainRecoversFromReplica(t *testing.T) {
	corrupt := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob[:len(blob)/2], 0o600); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a hex digit inside key-even; only the checksum can see it.
			i := strings.Index(string(blob), "key-even ") + len("key-even ")
			if blob[i] == '0' {
				blob[i] = '1'
			} else {
				blob[i] = '0'
			}
			if err := os.WriteFile(path, blob, 0o600); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00\xff\x00\xff"), 0o600); err != nil {
				t.Fatal(err)
			}
		},
		"deleted": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakIt := range corrupt {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "keyring")
			a := keyed(detKey(3))
			if err := a.BindStateFile(path); err != nil {
				t.Fatal(err)
			}
			cGrace := a.Mint(crashSrc)
			replica, err := os.ReadFile(path + keyStateBackup)
			if err != nil {
				t.Fatal(err)
			}
			rotateWithKey(a, detKey(4))
			if err := writeKeyState(path, a.State()); err != nil {
				t.Fatal(err)
			}
			// Crash point: main committed epoch 1, replica still epoch 0,
			// and the main file is then damaged (torn write, bitrot, loss).
			if err := os.WriteFile(path+keyStateBackup, replica, 0o600); err != nil {
				t.Fatal(err)
			}
			breakIt(t, path)

			b, err := Open(Options{StateFile: path})
			if err != nil {
				t.Fatalf("Open did not recover from replica: %v", err)
			}
			if b.Epoch() != 0 {
				t.Fatalf("recovered epoch = %d, want 0 (replica)", b.Epoch())
			}
			if !b.Verify(crashSrc, cGrace) {
				t.Fatal("grace-window cookie rejected after replica recovery")
			}
			// Recovery must re-establish a good main file for the next boot.
			if _, err := ReadKeyState(path); err != nil {
				t.Fatalf("main file not rewritten after recovery: %v", err)
			}
			// And fleet adoption of the lost epoch still lands monotonically.
			if !b.Adopt(KeyState{Epoch: 1, Keys: a.State().Keys}) {
				t.Fatal("recovered ring refused to re-adopt the lost epoch")
			}
			if b.Epoch() != 1 {
				t.Fatalf("epoch after re-adopt = %d, want 1", b.Epoch())
			}
		})
	}
}

// TestBothCopiesCorruptFailsClosed: with main and replica both unreadable
// Open must error rather than silently mint a fresh ring that
// orphans every cached cookie.
func TestBothCopiesCorruptFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	a := keyed(detKey(9))
	if err := a.BindStateFile(path); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + keyStateBackup} {
		if err := os.WriteFile(p, []byte("ruined"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Options{StateFile: path}); err == nil {
		t.Fatal("Open minted a fresh ring over a corrupt one")
	}
}

// TestChecksumDetectsTamper: the sum line turns silent corruption into a
// parse error (pre-sum four-line files still load).
func TestChecksumDetectsTamper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	a := keyed(detKey(5))
	if err := writeKeyState(path, a.State()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	if len(lines) < 5 || !strings.HasPrefix(lines[4], "sum ") {
		t.Fatalf("state file missing sum line: %q", blob)
	}
	// Legacy four-line file (no sum) still parses.
	legacy := strings.Join(lines[:4], "")
	if err := os.WriteFile(path, []byte(legacy), 0o600); err != nil {
		t.Fatal(err)
	}
	if st, err := ReadKeyState(path); err != nil {
		t.Fatalf("legacy sum-less file rejected: %v", err)
	} else if st != a.State() {
		t.Fatal("legacy parse mismatch")
	}
	// Tampered epoch with a stale sum is caught.
	tampered := strings.Replace(string(blob), "epoch 0", "epoch 7", 1)
	if err := os.WriteFile(path, []byte(tampered), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKeyState(path); err == nil {
		t.Fatal("checksum accepted a tampered epoch")
	}
}
