package cookie

import (
	"errors"
	"net/netip"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(fill byte) (k [KeySize]byte) {
	for i := range k {
		k[i] = fill
	}
	return k
}

func TestOpenKeyringHandleFollowsOwner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	owner, err := Open(Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(Options{StateFile: path, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("192.0.2.77")

	// Cross-mint: either side's cookie verifies on the other.
	if !follower.Verify(src, owner.Mint(src)) {
		t.Fatal("follower rejected owner's cookie")
	}
	if !owner.Verify(src, follower.Mint(src)) {
		t.Fatal("owner rejected follower's cookie")
	}

	// A follower must not rotate the shared ring.
	if err := follower.Rotate(); !errors.Is(err, ErrFollowHandle) {
		t.Fatalf("follower.Rotate() = %v, want ErrFollowHandle", err)
	}

	// Owner rotates; the follower is stale until Reload, then catches up.
	preRotate := owner.Mint(src)
	if err := owner.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Reload(); err != nil {
		t.Fatal(err)
	}
	if follower.Epoch() != owner.Epoch() {
		t.Fatalf("follower epoch %d != owner epoch %d after Reload", follower.Epoch(), owner.Epoch())
	}
	if !follower.Verify(src, preRotate) {
		t.Fatal("follower rejected pre-rotate cookie within the grace epoch")
	}
	if !follower.Verify(src, owner.Mint(src)) {
		t.Fatal("follower rejected owner's post-rotate cookie")
	}
}

func TestOpenKeyringHandleRequiresExistingFile(t *testing.T) {
	if _, err := Open(Options{StateFile: filepath.Join(t.TempDir(), "absent"), Follow: true}); err == nil {
		t.Fatal("a follow handle created a missing keyring")
	}
}

func TestAdoptNeverRegresses(t *testing.T) {
	a := keyed(testKey(1))
	rotateWithKey(a, testKey(2))
	rotateWithKey(a, testKey(3)) // epoch 2
	stale := KeyState{Epoch: 1}
	if a.Adopt(stale) {
		t.Fatal("Adopt accepted a stale epoch")
	}
	if a.Epoch() != 2 {
		t.Fatalf("epoch moved to %d on rejected Adopt", a.Epoch())
	}
	fresh := KeyState{Epoch: 5}
	fresh.Keys[0] = testKey(9)
	fresh.Keys[1] = testKey(8)
	if !a.Adopt(fresh) {
		t.Fatal("Adopt rejected a fresh epoch")
	}
	if a.Epoch() != 5 || a.State().Keys != fresh.Keys {
		t.Fatal("Adopt did not install the published state")
	}
}

// TestConcurrentVerifyDuringRotateAcrossHandles is the fleet-consistency
// race: two keyring handles on the same state file, one rotating while
// clients verify on the other. Run under -race this exercises the locking;
// the correctness half pins the paper's grace-epoch contract — a cookie
// minted just before a rotation must keep verifying on the *other* handle
// once it reloads, through every rotation in the schedule.
func TestConcurrentVerifyDuringRotateAcrossHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	owner, err := Open(Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(Options{StateFile: path, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.128.3.9")

	const rotations = 64
	var wg sync.WaitGroup
	errc := make(chan error, 2)

	// Writer: mint under the current epoch, rotate, and check the pre-rotate
	// cookie still verifies locally (grace epoch on the owner itself).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rotations; i++ {
			c := owner.Mint(src)
			if err := owner.Rotate(); err != nil {
				errc <- err
				return
			}
			if !owner.Verify(src, c) {
				errc <- errors.New("owner rejected its own pre-rotate cookie")
				return
			}
		}
	}()

	// Reader: hammer the follower with verifications of its own freshly
	// minted cookies while reloading the state file the owner keeps
	// rewriting. A follower-minted cookie must always verify on the follower
	// (its ring is internally consistent at every instant), and Reload must
	// never regress the epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := follower.Epoch()
		for i := 0; i < 4*rotations; i++ {
			if !follower.Verify(src, follower.Mint(src)) {
				errc <- errors.New("follower rejected its own cookie")
				return
			}
			if err := follower.Reload(); err != nil {
				errc <- err
				return
			}
			if e := follower.Epoch(); e < last {
				errc <- errors.New("follower epoch regressed on Reload")
				return
			} else {
				last = e
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Settle: after the dust clears the follower adopts the final ring and
	// the grace-epoch contract holds across handles one more time.
	preRotate := owner.Mint(src)
	if err := owner.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Reload(); err != nil {
		t.Fatal(err)
	}
	if !follower.Verify(src, preRotate) {
		t.Fatal("follower rejected pre-rotate cookie after concurrent rotation storm")
	}
}
