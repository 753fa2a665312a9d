//go:build !(linux && (amd64 || arm64))

package realnet

import (
	"time"

	"dnsguard/internal/netapi"
)

const haveMmsg = false

type osBatch struct{}

func (c *udpConn) initOS() error { return nil }

// The portable build has no native mmsg path; these stubs are never reached
// (ReadBatch/WriteBatch branch on haveMmsg) but keep the call sites
// compiling identically on every platform.

func (c *udpConn) readBatchOS(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	return c.readBatchLoop(msgs, timeout)
}

func (c *udpConn) writeBatchOS(msgs []netapi.Datagram) (int, error) {
	return c.writeBatchLoop(msgs)
}
