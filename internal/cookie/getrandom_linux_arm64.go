//go:build linux && arm64

package cookie

import "syscall"

const sysGETRANDOM = uintptr(syscall.SYS_GETRANDOM)
