//go:build linux && amd64

package cookie

// getrandom's x86-64 syscall number; the stdlib syscall table predates the
// syscall on this architecture.
const sysGETRANDOM = 318
