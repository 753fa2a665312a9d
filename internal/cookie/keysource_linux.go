//go:build linux && (amd64 || arm64)

// Key material on the native build comes from getrandom(2) directly:
// crypto/rand would link the FIPS 140-3 module (its DRBG, AES-GCM and the
// self-tests of every hash) into the daemons for 76 bytes at start-up and
// at each rotation.

package cookie

import (
	"io"
	"os"
	"syscall"
	"unsafe"

	"dnsguard/internal/errs"
)

// readKey fills key from the kernel's CSPRNG.
func readKey(key *[KeySize]byte) error {
	return fillKey(key, getrandom)
}

// getrandom is one getrandom(2) call with no flags: it blocks until the
// kernel's pool is initialized, then reads from it.
func getrandom(b []byte) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall(sysGETRANDOM, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), 0)
	return int(n), errno
}

// fillKey fills key by calling read until the key is full, retrying an
// interrupted call and continuing after a short read. A kernel without
// getrandom (ENOSYS) or a seccomp filter that refuses it (EPERM) falls back
// to /dev/urandom, as crypto/rand does. key is written only once it is
// whole: any other error leaves it untouched.
func fillKey(key *[KeySize]byte, read func([]byte) (int, syscall.Errno)) error {
	var b [KeySize]byte
	for n := 0; n < len(b); {
		m, errno := read(b[n:])
		switch errno {
		case 0:
			n += m
		case syscall.EINTR:
		case syscall.ENOSYS, syscall.EPERM:
			if err := readURandom(b[:]); err != nil {
				return err
			}
			n = len(b)
		default:
			return errs.Wrap("getrandom: "+errno.Error(), errno)
		}
	}
	*key = b
	return nil
}

// readURandom fills b from /dev/urandom.
func readURandom(b []byte) error {
	f, err := os.Open("/dev/urandom")
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := io.ReadFull(f, b); err != nil {
		return errs.Wrap("reading /dev/urandom: "+err.Error(), err)
	}
	return nil
}
