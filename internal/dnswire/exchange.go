package dnswire

import (
	"bytes"
	"errors"
	"net/netip"
	"sync"
	"time"

	"dnsguard/internal/errs"
	"dnsguard/internal/netapi"
)

// The requester's exchange: send one query and take its answer. An answer is
// what comes from the server the query went to (a TCP connection has no other
// peer), has QR set, carries the query's ID and question (RFC 5452 §9.1: the
// check that keeps an off-path forger's guesses out of an honest requester),
// and parses. The query and each candidate are judged on their views; only
// the answer is unpacked. Everything else is skipped, and the wait goes on
// until one deadline, timeout after the query was sent. Each exchange opens
// its own ephemeral socket or connection and closes it before it returns.
//
// The query must be one a View takes, of one question; the error is
// ErrMalformed when it is not. The error is netapi.ErrTimeout itself, not
// wrapped, when no answer came by the deadline; an error opening the socket
// or sending the query wraps its cause, so a dial that timed out is not taken
// for the server's silence.

// ExchangeUDP sends query, a packed DNS query, to server in one datagram and
// returns the first datagram that answers it, parsed and as it arrived.
func ExchangeUDP(env netapi.Env, server netip.AddrPort, query []byte, timeout time.Duration) (*Message, []byte, error) {
	q, ok := ParseView(query)
	if !ok || q.QDCount() != 1 {
		return nil, nil, ErrMalformed
	}
	conn, err := env.ListenUDP(netip.AddrPort{})
	if err != nil {
		return nil, nil, errs.Wrap("dnswire: binding query socket: "+err.Error(), err)
	}
	defer conn.Close()
	if err := conn.WriteTo(query, server); err != nil {
		return nil, nil, errs.Wrap("dnswire: sending to "+server.String()+": "+err.Error(), err)
	}
	slotp := answerSlots.Get().(*[]netapi.Datagram)
	defer answerSlots.Put(slotp)
	slot := *slotp
	resp, answer, err := await(env, q, timeout, func(remain time.Duration) ([]byte, error) {
		if _, err := conn.ReadBatch(slot, remain); err != nil {
			return nil, err
		}
		if slot[0].Addr != server || slot[0].N > MaxDatagram {
			return nil, nil
		}
		return slot[0].Payload(), nil
	})
	// The answer lies in the pooled slot, which the next exchange overwrites:
	// the caller gets its own copy.
	return resp, bytes.Clone(answer), err
}

// answerSlots pools the one-slot slabs ExchangeUDP reads into, each slot
// MaxDatagram+1 bytes: a full slot is a datagram over the ceiling, which
// no answer is. A datagram is judged in the slot before the next read.
var answerSlots = sync.Pool{New: func() any {
	slot := netapi.NewSlab(1, MaxDatagram+1)
	return &slot
}}

// ExchangeTCP sends query, a packed DNS query, to server in one frame on a
// fresh TCP connection and returns the first frame that answers it, parsed,
// without its length prefix. It reads into buf, which the caller owns, or
// into a 4 KiB buffer of its own when buf is nil; every complete frame a
// read holds is judged before the next read.
func ExchangeTCP(env netapi.Env, server netip.AddrPort, query []byte, timeout time.Duration, buf []byte) (*Message, []byte, error) {
	q, ok := ParseView(query)
	if !ok || q.QDCount() != 1 {
		return nil, nil, ErrMalformed
	}
	frame, err := AppendTCPFrame(nil, query)
	if err != nil {
		return nil, nil, err
	}
	conn, err := env.DialTCP(server)
	if err != nil {
		return nil, nil, errs.Wrap("dnswire: dialing "+server.String()+": "+err.Error(), err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		return nil, nil, errs.Wrap("dnswire: sending to "+server.String()+": "+err.Error(), err)
	}
	if buf == nil {
		buf = make([]byte, 4096)
	}
	var sc FrameScanner
	return await(env, q, timeout, func(remain time.Duration) ([]byte, error) {
		if msg, ok, err := sc.Next(); ok || err != nil {
			return msg, nil // a frame too short for a header is nil, and skipped
		}
		n, err := conn.Read(buf, remain)
		sc.Add(buf[:n])
		return nil, err
	})
}

// await calls next until it returns an answer to q, an error, or the
// deadline passes. next waits at most remain and returns a datagram or frame
// to judge, or nil for nothing to judge yet.
func await(env netapi.Env, q View, timeout time.Duration, next func(remain time.Duration) ([]byte, error)) (*Message, []byte, error) {
	deadline := env.Now() + timeout
	for {
		remain := deadline - env.Now()
		if remain <= 0 {
			return nil, nil, netapi.ErrTimeout
		}
		b, err := next(remain)
		switch {
		case errors.Is(err, netapi.ErrTimeout):
			return nil, nil, netapi.ErrTimeout
		case err != nil:
			return nil, nil, err
		case b == nil:
			continue
		}
		if v, ok := ParseView(b); !ok || !v.QR() || v.ID() != q.ID() || v.QDCount() != 1 || !SameQuestion(v.QuestionWire(), q.QuestionWire()) {
			continue
		}
		if resp, err := Unpack(b); err == nil {
			return resp, b, nil
		}
	}
}
