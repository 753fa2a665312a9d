//go:build linux && (amd64 || arm64)

package cookie

import (
	"errors"
	"syscall"
	"testing"
)

// readStep is one scripted getrandom result: n bytes written, or errno.
type readStep struct {
	n     int
	errno syscall.Errno
}

// scriptedRead plays steps in order, writing bytes 1, 2, 3, … across the
// calls so a gap or an overlap in the filled key shows. It counts its calls.
func scriptedRead(t *testing.T, steps ...readStep) (func([]byte) (int, syscall.Errno), *int) {
	calls, next := 0, byte(1)
	return func(b []byte) (int, syscall.Errno) {
		if calls == len(steps) {
			t.Fatalf("read called %d times, script has %d steps", calls+1, len(steps))
		}
		st := steps[calls]
		calls++
		if st.errno != 0 {
			return -1, st.errno
		}
		n := min(st.n, len(b))
		for i := range b[:n] {
			b[i] = next
			next++
		}
		return n, 0
	}, &calls
}

// TestFillKey drives the native key fill through every outcome getrandom(2)
// can give: interrupted and short reads are resumed, ENOSYS and EPERM fall
// back to /dev/urandom, and any other error leaves the key untouched.
func TestFillKey(t *testing.T) {
	var sequential [KeySize]byte
	for i := range sequential {
		sequential[i] = byte(i + 1)
	}
	for _, tc := range []struct {
		name  string
		steps []readStep
	}{
		{"whole", []readStep{{n: KeySize}}},
		{"EINTR", []readStep{{errno: syscall.EINTR}, {errno: syscall.EINTR}, {n: KeySize}}},
		{"short", []readStep{{n: 10}, {n: 1}, {errno: syscall.EINTR}, {n: 30}, {n: KeySize}}},
	} {
		read, calls := scriptedRead(t, tc.steps...)
		var key [KeySize]byte
		if err := fillKey(&key, read); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if key != sequential || *calls != len(tc.steps) {
			t.Errorf("%s: key %x after %d calls, want %x after %d", tc.name, key, *calls, sequential, len(tc.steps))
		}
	}

	for _, errno := range []syscall.Errno{syscall.ENOSYS, syscall.EPERM} {
		read, calls := scriptedRead(t, readStep{n: 5}, readStep{errno: errno})
		var key [KeySize]byte
		if err := fillKey(&key, read); err != nil {
			t.Fatalf("%v: fallback to /dev/urandom failed: %v", errno, err)
		}
		if *calls != 2 || key == ([KeySize]byte{}) || [5]byte(key[:5]) == [5]byte{1, 2, 3, 4, 5} {
			t.Errorf("%v: key %x after %d calls, want /dev/urandom's after 2", errno, key, *calls)
		}
	}

	read, _ := scriptedRead(t, readStep{n: 20}, readStep{errno: syscall.EIO})
	key := testKey(0xAA)
	err := fillKey(&key, read)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("EIO: err = %v, want EIO", err)
	}
	if key != testKey(0xAA) {
		t.Errorf("EIO: a partial key was written: %x", key)
	}
}
