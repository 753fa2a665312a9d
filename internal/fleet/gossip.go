package fleet

// Gossip keyring anti-entropy. Controller push (Fleet.push) has a single
// point of failure: a rotation that lands while the controller is out leaves
// the fleet's epoch schedule frozen. The gossip layer removes it — every
// site periodically exchanges a one-line digest (its keyring epoch) with a
// deterministically rotating peer, pulls the full ring when it is behind and
// pushes when it is ahead. Adopt's epoch monotonicity makes reconciliation
// conflict-free, so the protocol converges within a bounded number of rounds
// even through link partitions: with N sites each site cycles through all
// N-1 peers, and any connected component agrees on the maximum epoch after
// at most N-1 intervals plus one pull round-trip.
//
// The wire protocol (UDP on each site's own address, port 7946):
//
//	digest  0x01 | epoch:8          periodic advertisement
//	pull    0x02                    "you are ahead of me; send your ring"
//	state   0x03 | epoch:8 | key-even:76 | key-odd:76 [| scheme:1]
//
// The trailing scheme octet tags the ring's MAC scheme (0 = md5, 1 =
// siphash). Senders always append it; receivers accept the legacy untagged
// length too, treating it as md5 — the same compatibility rule as the
// keyring state file's optional "mac" line.
//
// A received state goes through guard.AdoptKeys → cookie.Adopt, which both
// enforces monotonicity and persists to the site's bound state file before
// returning — a site restarted mid-convergence reopens the newest ring it
// had durably adopted.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
)

// GossipConfig parameterizes the anti-entropy layer.
type GossipConfig struct {
	// Enabled switches keyring distribution from controller push to gossip.
	Enabled bool
}

const (
	// gossipInterval is the digest period.
	gossipInterval = 100 * time.Millisecond
	// gossipPort is the UDP port each site's gossip endpoint binds
	// (memberlist's).
	gossipPort = 7946
)

// GossipStats counts anti-entropy activity fleet-wide.
type GossipStats struct {
	// Digests counts periodic digest advertisements sent.
	Digests uint64
	// Pulls counts behind-digest pull requests sent.
	Pulls uint64
	// Pushes counts full key states sent (ahead-digest push or pull answer).
	Pushes uint64
	// Adopts counts epoch-advancing adoptions at receiving sites.
	Adopts uint64
}

// gossip message types.
const (
	gossipDigest = 0x01
	gossipPull   = 0x02
	gossipState  = 0x03
)

// gossipStateLen is the wire size of a legacy (untagged) state message;
// tagged messages carry one more scheme octet.
const gossipStateLen = 1 + 8 + 2*cookie.KeySize

// Scheme octet values for tagged state messages.
const (
	gossipSchemeMD5     = 0
	gossipSchemeSipHash = 1
)

// gossipSchemeName maps a state message's scheme octet to the cookie
// package's scheme name; ok is false for octets this build does not know
// (the message is dropped — adopting a ring we cannot verify with would
// break every cookie at this site).
func gossipSchemeName(b byte) (string, bool) {
	switch b {
	case gossipSchemeMD5:
		return "", true
	case gossipSchemeSipHash:
		return "siphash", true
	}
	return "", false
}

// gossipSchemeByte is the inverse, for senders.
func gossipSchemeByte(name string) byte {
	if name == "siphash" {
		return gossipSchemeSipHash
	}
	return gossipSchemeMD5
}

// startGossip binds each site's gossip endpoint and spawns its sender and
// receiver procs.
func (f *Fleet) startGossip() error {
	f.gossipConns = make([]netapi.UDPConn, len(f.sites))
	for i, s := range f.sites {
		conn, err := s.Host.ListenUDP(f.gossipAddr(i))
		if err != nil {
			return fmt.Errorf("fleet: site %d gossip endpoint: %w", i, err)
		}
		f.gossipConns[i] = conn
		i := i
		s.Host.Go(fmt.Sprintf("gossip-send-%d", i), func() { f.gossipSendLoop(i) })
		s.Host.Go(fmt.Sprintf("gossip-recv-%d", i), func() { f.gossipRecvLoop(i) })
	}
	return nil
}

// gossipAddr is site i's gossip endpoint.
func (f *Fleet) gossipAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(siteAddr(i), gossipPort)
}

// gossipSendLoop advertises site i's keyring epoch every interval to a
// deterministically rotating peer: round r goes to (i+1+r mod N-1) mod N, so
// every site contacts every other within N-1 rounds — the property that
// bounds convergence even when one pairwise link is partitioned.
func (f *Fleet) gossipSendLoop(i int) {
	h := f.sites[i].Host
	n := len(f.sites)
	for round := 0; ; round++ {
		h.Sleep(gossipInterval)
		if f.stopped {
			return
		}
		if f.down[i] || n < 2 {
			continue // a restarting site is out of the mesh until it rejoins
		}
		peer := (i + 1 + round%(n-1)) % n
		var msg [9]byte
		msg[0] = gossipDigest
		binary.BigEndian.PutUint64(msg[1:], f.sites[i].auth.State().Epoch)
		f.gstats.Digests++
		if f.gossipConns[i].WriteTo(msg[:], f.gossipAddr(peer)) != nil {
			return // endpoint closed
		}
	}
}

// gossipRecvLoop dispatches incoming gossip traffic for site i, each message
// handled in the one slot it is read into. The slot is one byte longer than
// the longest message, so a longer datagram fails gossipHandle's length
// checks.
func (f *Fleet) gossipRecvLoop(i int) {
	conn := f.gossipConns[i]
	slot := netapi.NewSlab(1, gossipStateLen+2)
	for {
		if _, err := conn.ReadBatch(slot, netapi.NoTimeout); err != nil {
			return // endpoint closed
		}
		if f.stopped || f.down[i] || slot[0].N == 0 {
			continue
		}
		f.gossipHandle(i, slot[0].Addr, slot[0].Payload())
	}
}

// gossipHandle reconciles one incoming message at site i: push-pull
// anti-entropy keyed purely on epoch comparison.
func (f *Fleet) gossipHandle(i int, src netip.AddrPort, b []byte) {
	switch b[0] {
	case gossipDigest:
		if len(b) != 9 {
			return
		}
		remote := binary.BigEndian.Uint64(b[1:])
		mine := f.sites[i].auth.State().Epoch
		switch {
		case remote > mine:
			f.gstats.Pulls++
			_ = f.gossipConns[i].WriteTo([]byte{gossipPull}, src)
		case remote < mine:
			f.gossipSendState(i, src)
		}
	case gossipPull:
		f.gossipSendState(i, src)
	case gossipState:
		if len(b) != gossipStateLen && len(b) != gossipStateLen+1 {
			return
		}
		var st cookie.KeyState
		if len(b) == gossipStateLen+1 {
			name, known := gossipSchemeName(b[gossipStateLen])
			if !known {
				return
			}
			st.Scheme = name
		}
		st.Epoch = binary.BigEndian.Uint64(b[1:9])
		copy(st.Keys[0][:], b[9:9+cookie.KeySize])
		copy(st.Keys[1][:], b[9+cookie.KeySize:gossipStateLen])
		g := f.sites[i].Guard
		before := f.sites[i].auth.State().Epoch
		if g.AdoptKeys(st) && st.Epoch > before {
			f.gstats.Adopts++
			f.noteEpoch(st.Epoch)
		}
	}
}

// gossipSendState ships site i's full keyring to a peer endpoint.
func (f *Fleet) gossipSendState(i int, to netip.AddrPort) {
	st := f.sites[i].auth.State()
	b := make([]byte, gossipStateLen+1)
	b[0] = gossipState
	binary.BigEndian.PutUint64(b[1:9], st.Epoch)
	copy(b[9:], st.Keys[0][:])
	copy(b[9+cookie.KeySize:], st.Keys[1][:])
	b[gossipStateLen] = gossipSchemeByte(st.Scheme)
	f.gstats.Pushes++
	_ = f.gossipConns[i].WriteTo(b, to)
}

// seedRotation is Rotate under gossip: exactly one live site adopts the next
// epoch (with deterministically derived key material — simulations must
// replay bit-identically) and anti-entropy spreads it. The controller, when
// up, adopts the same state so pre-provisioned cookie minting stays current;
// when down, the fleet converges without it and the population's older
// cookies ride the previous-epoch grace window.
func (f *Fleet) seedRotation() error {
	seed := -1
	for i := range f.sites {
		if !f.down[i] {
			seed = i
			break
		}
	}
	if seed < 0 {
		return errors.New("fleet: no live site to seed a rotation")
	}
	st := f.sites[seed].auth.State()
	st.Epoch++
	st.Keys[st.Epoch&1] = f.deriveKey(st.Epoch)
	if !f.sites[seed].Guard.AdoptKeys(st) {
		return fmt.Errorf("fleet: site %d refused seeded epoch %d", seed, st.Epoch)
	}
	f.seededAt[st.Epoch] = f.cfg.Net.Scheduler().Now()
	f.noteEpoch(st.Epoch)
	if !f.ctrlDown {
		f.controller.Adopt(st)
	}
	return nil
}

// deriveKey expands (fleet seed, epoch) into rotation key material via the
// splitmix64 stream. Production guards rotate with crypto/rand
// (Authenticator.Rotate); the simulated fleet needs replayable keys.
func (f *Fleet) deriveKey(epoch uint64) [cookie.KeySize]byte {
	var k [cookie.KeySize]byte
	var buf [cookie.KeySize + 8]byte
	x := splitmix(f.cfg.Seed ^ epoch*0xA24BAED4963EE407)
	for o := 0; o < cookie.KeySize; o += 8 {
		x = splitmix(x)
		binary.BigEndian.PutUint64(buf[o:], x)
	}
	copy(k[:], buf[:cookie.KeySize])
	return k
}

// noteEpoch records fleet-wide convergence on epoch: the first moment every
// site's keyring has reached it.
func (f *Fleet) noteEpoch(epoch uint64) {
	if _, done := f.convergedAt[epoch]; done {
		return
	}
	for _, s := range f.sites {
		if s.auth.State().Epoch < epoch {
			return
		}
	}
	f.convergedAt[epoch] = f.cfg.Net.Scheduler().Now()
}

// GossipStats returns the fleet-wide anti-entropy counters.
func (f *Fleet) GossipStats() GossipStats { return f.gstats }

// GossipConvergence reports, for the highest seeded epoch that has fully
// converged, how many gossip intervals elapsed between seeding and the last
// site's adoption. ok is false when no seeded epoch has converged.
func (f *Fleet) GossipConvergence() (epoch uint64, rounds int, ok bool) {
	for e, at := range f.seededAt {
		done, conv := f.convergedAt[e]
		if !conv || e < epoch {
			continue
		}
		epoch = e
		rounds = int((done - at + gossipInterval - 1) / gossipInterval)
		ok = true
	}
	return epoch, rounds, ok
}

// gossipMetricsInto registers the fleet_gossip_* series.
func (f *Fleet) gossipMetricsInto(r *metrics.Registry) {
	r.FuncUint("fleet_gossip_digests", func() uint64 { return f.gstats.Digests })
	r.FuncUint("fleet_gossip_pulls", func() uint64 { return f.gstats.Pulls })
	r.FuncUint("fleet_gossip_pushes", func() uint64 { return f.gstats.Pushes })
	r.FuncUint("fleet_gossip_adopts", func() uint64 { return f.gstats.Adopts })
	r.FuncUint("fleet_gossip_converge_rounds", func() uint64 {
		if _, rounds, ok := f.GossipConvergence(); ok {
			return uint64(rounds)
		}
		return 0
	})
}
