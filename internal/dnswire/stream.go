package dnswire

import (
	"errors"
	"strconv"
)

// ErrFrameTooLarge reports a TCP length prefix exceeding the protocol cap.
var ErrFrameTooLarge = errors.New("dnswire: TCP frame exceeds 64 KiB")

// AppendTCPFrame appends the two-byte big-endian length prefix and the
// message bytes to dst, per RFC 1035 §4.2.2.
func AppendTCPFrame(dst, msg []byte) ([]byte, error) {
	if len(msg) > MaxMessageSize {
		return dst, ErrFrameTooLarge
	}
	dst = append(dst, byte(len(msg)>>8), byte(len(msg)))
	return append(dst, msg...), nil
}

// FrameScanner incrementally extracts length-prefixed DNS messages from a TCP
// byte stream. Feed it raw reads with Add and pull complete messages with
// Next.
type FrameScanner struct {
	buf []byte
}

// Add appends stream bytes to the scanner's buffer.
func (s *FrameScanner) Add(b []byte) { s.buf = append(s.buf, b...) }

// Next returns the next complete message payload, or ok=false when more
// stream bytes are needed. The returned slice is a copy owned by the caller.
func (s *FrameScanner) Next() (msg []byte, ok bool, err error) {
	if len(s.buf) < 2 {
		return nil, false, nil
	}
	n := int(s.buf[0])<<8 | int(s.buf[1])
	if len(s.buf) < 2+n {
		return nil, false, nil
	}
	msg = append([]byte(nil), s.buf[2:2+n]...)
	s.buf = s.buf[2+n:]
	if len(msg) < 12 {
		return nil, false, malformed("frame of " + strconv.Itoa(len(msg)) + " bytes is shorter than a DNS header")
	}
	return msg, true, nil
}
