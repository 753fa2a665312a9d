//go:build linux && amd64

package gen

// sendmmsg's syscall number; the stdlib syscall table for this architecture
// predates the call.
const sysSENDMMSG = 307
