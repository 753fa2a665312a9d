package cookie

import (
	"math/rand"
	"net/netip"
	"testing"
)

// Property test for the §III-E rotation contract: at any point in the key
// schedule, Verify accepts exactly the cookies minted under the current and
// previous generation for the same source address — and nothing else. This
// is what lets the guard rotate weekly without invalidating cookies cached
// by resolvers inside one TTL window, while a stolen two-week-old cookie is
// useless.

// detKey derives a distinct deterministic key for generation i.
func detKey(i int) [KeySize]byte {
	var key [KeySize]byte
	rng := rand.New(rand.NewSource(int64(0x5eed<<8 + i)))
	rng.Read(key[:])
	return key
}

// detAddrs returns a deterministic mix of v4 and v6 source addresses.
func detAddrs() []netip.Addr {
	rng := rand.New(rand.NewSource(777))
	addrs := make([]netip.Addr, 0, 40)
	for i := 0; i < 32; i++ {
		var b [4]byte
		rng.Read(b[:])
		addrs = append(addrs, netip.AddrFrom4(b))
	}
	for i := 0; i < 8; i++ {
		var b [16]byte
		rng.Read(b[:])
		addrs = append(addrs, netip.AddrFrom16(b))
	}
	return addrs
}

func TestRotationAcceptsExactlyTwoGenerations(t *testing.T) {
	auth := keyed(detKey(0))
	addrs := detAddrs()
	const rotations = 6

	// minted[g][addr] is the cookie minted while generation g was current.
	minted := make([]map[netip.Addr]Cookie, rotations+1)
	for gen := 0; gen <= rotations; gen++ {
		if gen > 0 {
			rotateWithKey(auth, detKey(gen))
		}
		if int(auth.Epoch()) != gen {
			t.Fatalf("epoch = %d after %d rotations", auth.Epoch(), gen)
		}
		minted[gen] = make(map[netip.Addr]Cookie, len(addrs))
		for _, src := range addrs {
			minted[gen][src] = auth.Mint(src)
		}

		for _, src := range addrs {
			// Current generation always verifies.
			if !auth.Verify(src, minted[gen][src]) {
				t.Fatalf("gen %d: fresh cookie for %v rejected", gen, src)
			}
			// Previous generation still verifies (TTL grace).
			if gen >= 1 && !auth.Verify(src, minted[gen-1][src]) {
				t.Fatalf("gen %d: previous-generation cookie for %v rejected", gen, src)
			}
			// Anything older is dead, even though its generation parity
			// may match the current key slot.
			for old := 0; old <= gen-2; old++ {
				if auth.Verify(src, minted[old][src]) {
					t.Fatalf("gen %d: generation-%d cookie for %v still accepted", gen, old, src)
				}
			}
		}
	}
}

func TestRotationRejectsForgeries(t *testing.T) {
	auth := keyed(detKey(0))
	rotateWithKey(auth, detKey(1)) // make current ≠ previous
	addrs := detAddrs()
	rng := rand.New(rand.NewSource(31337))

	for _, src := range addrs {
		c := auth.Mint(src)

		// Any single-bit corruption must invalidate the cookie — including
		// bit 0 of byte 0, the generation-parity bit.
		for bit := 0; bit < Size*8; bit++ {
			bad := c
			bad[bit/8] ^= 1 << (bit % 8)
			if auth.Verify(src, bad) {
				t.Fatalf("cookie for %v with bit %d flipped still verifies", src, bit)
			}
		}

		// Random cookies never verify.
		var forged Cookie
		rng.Read(forged[:])
		if auth.Verify(src, forged) {
			t.Fatalf("random forgery for %v verifies", src)
		}

		// A valid cookie is bound to its source address.
		for _, other := range addrs {
			if other != src && auth.Verify(other, c) {
				t.Fatalf("cookie for %v accepted for %v", src, other)
			}
		}
	}
}

func TestRotationNSLabelAcceptsBothGenerations(t *testing.T) {
	// The fabricated-NS encoding carries only the first 4 cookie bytes; it
	// must honour the same two-generation window.
	auth := keyed(detKey(0))
	nc := NSCodec{}
	addrs := detAddrs()

	prev := make(map[netip.Addr]string, len(addrs))
	for _, src := range addrs {
		prev[src] = nc.EncodeLabel(auth.Mint(src))
	}
	rotateWithKey(auth, detKey(1))
	for _, src := range addrs {
		cur := nc.EncodeLabel(auth.Mint(src))
		if !nc.VerifyLabel(auth, src, cur) {
			t.Fatalf("current-generation label for %v rejected", src)
		}
		if !nc.VerifyLabel(auth, src, prev[src]) {
			t.Fatalf("previous-generation label for %v rejected", src)
		}
	}
	// Two rotations later the old labels are dead.
	rotateWithKey(auth, detKey(2))
	rotateWithKey(auth, detKey(3))
	rejected := 0
	for _, src := range addrs {
		if !nc.VerifyLabel(auth, src, prev[src]) {
			rejected++
		}
	}
	// The label carries 31 effective bits, so a stray collision is possible
	// in principle; with these fixed seeds every stale label must miss.
	if rejected != len(addrs) {
		t.Fatalf("only %d/%d stale labels rejected after two rotations", rejected, len(addrs))
	}
}

func TestRotationIPCookieAcceptsBothGenerations(t *testing.T) {
	// COOKIE2 addresses carry no generation bit at all: Verify tries both
	// keys explicitly. Same window property, smaller cookie space (R_y).
	auth := keyed(detKey(0))
	ic := IPCodec{Subnet: netip.MustParsePrefix("192.0.2.0/24")}
	addrs := detAddrs()

	prev := make(map[netip.Addr]netip.Addr, len(addrs))
	for _, src := range addrs {
		a, err := ic.Encode(auth.Mint(src))
		if err != nil {
			t.Fatal(err)
		}
		prev[src] = a
	}
	rotateWithKey(auth, detKey(1))
	for _, src := range addrs {
		cur, err := ic.Encode(auth.Mint(src))
		if err != nil {
			t.Fatal(err)
		}
		if !verifyIP(auth.snapshot(), ic, src, cur) {
			t.Fatalf("current-generation address for %v rejected", src)
		}
		if !verifyIP(auth.snapshot(), ic, src, prev[src]) {
			t.Fatalf("previous-generation address for %v rejected", src)
		}
		if out := netip.MustParseAddr("203.0.113.9"); verifyIP(auth.snapshot(), ic, src, out) {
			t.Fatalf("address outside the subnet verified for %v", src)
		}
	}
}
