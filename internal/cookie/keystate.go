package cookie

// Keyring persistence. A guard restart that loses key76 silently invalidates
// every cookie the LRS population has cached — and those cached credentials
// live for up to a week (DefaultTTL), so the paper's "almost always a cache
// hit" property turns into a thundering herd of re-bootstraps the moment the
// guard comes back. Persisting the epoch'd keyring lets a restarted guard
// keep verifying cookies minted before the crash.
//
// The state file is a small versioned text format:
//
//	dnsguard-keyring v1
//	epoch <decimal>
//	key-even <152 hex chars>
//	key-odd  <152 hex chars>
//	mac <scheme name, present only for non-default schemes>
//	sum <8 hex chars, CRC-32 of the lines above>
//
// key-even/key-odd are the epoch-parity key slots (keys[epoch&1] is
// current). The mac line tags the ring's MACScheme; it is omitted for the
// default MD5 so rings under the paper's scheme stay byte-identical to the
// historical format and remain readable by older builds. The file is
// written atomically (tmp + fsync + rename) with 0600 permissions; it holds
// the guard's only secret. The trailing sum line detects torn or bit-rotted
// state (files written before the sum existed — exactly four lines — still
// parse); every write also refreshes a `.bak` replica so Open can
// recover a corrupt main file from the last durable ring instead of minting
// fresh keys and orphaning every cookie the population has cached.

import (
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dnsguard/internal/errs"
)

// keyStateMagic is the state file's first line.
const keyStateMagic = "dnsguard-keyring v1"

// keyStateBackup is the suffix of the recovery replica kept beside the
// state file.
const keyStateBackup = ".bak"

// KeyState is the serializable form of an Authenticator's keyring.
type KeyState struct {
	Epoch uint64
	Keys  [2][KeySize]byte // indexed by epoch parity
	// Scheme names the ring's MACScheme; empty means the default (MD5),
	// keeping states captured by older builds adoptable unchanged.
	Scheme string
}

// State returns a copy of the authenticator's current keyring.
func (a *Authenticator) State() KeyState {
	return a.snapshot().state()
}

// BindStateFile makes path the authenticator's persistent home: the current
// ring is written immediately and every subsequent Rotate rewrites it before
// returning. Binding an empty path detaches.
func (a *Authenticator) BindStateFile(path string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bound = path
	if path == "" {
		return nil
	}
	return writeKeyState(path, a.snapshot().state())
}

// Fleet-shared keyrings. A guard fleet (anycast sites behind one service
// address) must verify each other's cookies: a catchment shift hands a
// verified client to a cold site, and the cold site can only re-admit it
// without a re-challenge if it holds the same key material and epoch
// schedule as the site that minted the cookie. One authenticator (or the
// daemon owning the state file) is the ring's writer; every other guard
// holds a read handle that adopts the owner's published KeyState.

// ErrFollowHandle is returned by Rotate on a read handle opened with
// Options.Follow: the ring has exactly one writer, followers only adopt.
var ErrFollowHandle = errors.New("cookie: keyring follow handle cannot rotate; the owner rotates")

// Adopt installs a published keyring state, typically pushed by a fleet
// controller after it rotates the shared ring. Epochs never regress: a stale
// state (st.Epoch below the current epoch) is ignored and Adopt reports
// false, as is a state naming a scheme this build does not know. Adopting
// the current epoch re-installs the key material, which is a no-op when the
// states already agree. When the authenticator is bound to a state file the
// adopted ring is persisted before it is published; a persistence failure
// (reported as false) leaves the live ring untouched so the disk ring never
// lags the live one.
func (a *Authenticator) Adopt(st KeyState) bool {
	ok, _ := a.adopt(st)
	return ok
}

// adopt is Adopt that also says why a state was not installed: a nil error
// with false is a stale epoch, an error is an unknown scheme or a failed
// persist.
func (a *Authenticator) adopt(st KeyState) (bool, error) {
	mac, err := MACByName(st.Scheme)
	if err != nil {
		return false, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if st.Epoch < a.snapshot().epoch {
		return false, nil
	}
	next := newRing(st.Epoch, st.Keys, mac)
	if a.bound != "" {
		if err := writeKeyState(a.bound, next.state()); err != nil {
			return false, errs.Wrap("cookie: persisting adopted keyring: "+err.Error(), err)
		}
	}
	a.ring.Store(next)
	return true, nil
}

// Reload re-reads the state file the authenticator follows (Options.Follow)
// or is bound to, and adopts it. The shared-file flavour of fleet key
// distribution: the owner rotates and rewrites the file, followers poll
// Reload. A state whose epoch is behind the live one is ignored without
// error — the owner's write may simply not have landed yet. A bound
// authenticator that cannot persist the adopted ring keeps its live ring
// and returns the error.
func (a *Authenticator) Reload() error {
	a.mu.Lock()
	path := a.source
	if path == "" {
		path = a.bound
	}
	a.mu.Unlock()
	if path == "" {
		return errors.New("cookie: Reload: authenticator has no state file")
	}
	st, err := ReadKeyState(path)
	if err != nil {
		return err
	}
	_, err = a.adopt(st)
	return err
}

// ReadKeyState parses a keyring state file.
func ReadKeyState(path string) (KeyState, error) {
	bad := func(detail string, err error) error {
		return errs.Wrap("cookie: keyring "+path+": "+detail, err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return KeyState{}, bad(err.Error(), err)
	}
	var st KeyState
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) < 4 || len(lines) > 6 || strings.TrimSpace(lines[0]) != keyStateMagic {
		return KeyState{}, bad("not a "+strconv.Quote(keyStateMagic)+" file", nil)
	}
	if last := strings.Fields(lines[len(lines)-1]); len(last) > 0 && last[0] == "sum" {
		// Current writers append a CRC-32 of the preceding lines; a file
		// without the sum predates it and is accepted as-is.
		if len(last) != 2 {
			return KeyState{}, bad("malformed line "+strconv.Quote(lines[len(lines)-1]), nil)
		}
		want, err := strconv.ParseUint(last[1], 16, 32)
		if err != nil {
			return KeyState{}, bad("sum: "+err.Error(), err)
		}
		body := strings.Join(lines[:len(lines)-1], "\n") + "\n"
		if got := crc32.ChecksumIEEE([]byte(body)); got != uint32(want) {
			return KeyState{}, bad("checksum mismatch (want "+hex32(uint32(want))+", got "+hex32(got)+"): torn or corrupt state", nil)
		}
		lines = lines[:len(lines)-1]
	}
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 2 || seen[fields[0]] {
			return KeyState{}, bad("malformed line "+strconv.Quote(line), nil)
		}
		seen[fields[0]] = true
		switch fields[0] {
		case "epoch":
			st.Epoch, err = strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return KeyState{}, bad("epoch: "+err.Error(), err)
			}
		case "key-even", "key-odd":
			idx := 0
			if fields[0] == "key-odd" {
				idx = 1
			}
			if !decodeKey(&st.Keys[idx], fields[1]) {
				return KeyState{}, bad(fields[0]+" is not "+strconv.Itoa(KeySize)+" hex bytes", nil)
			}
		case "mac":
			if _, err := MACByName(fields[1]); err != nil {
				return KeyState{}, bad(err.Error(), err)
			}
			st.Scheme = fields[1]
		default:
			return KeyState{}, bad("unknown field "+strconv.Quote(fields[0]), nil)
		}
	}
	if !seen["epoch"] || !seen["key-even"] || !seen["key-odd"] {
		return KeyState{}, bad("missing fields", nil)
	}
	return st, nil
}

// keyStateBlob renders st in the on-disk format, checksum line included.
// The mac line appears only for non-default schemes, so default-scheme
// rings keep the exact historical byte layout.
func keyStateBlob(st KeyState) string {
	var b strings.Builder
	b.WriteString(keyStateMagic + "\nepoch " + strconv.FormatUint(st.Epoch, 10) + "\n")
	b.WriteString("key-even " + hex.EncodeToString(st.Keys[0][:]) + "\n")
	b.WriteString("key-odd " + hex.EncodeToString(st.Keys[1][:]) + "\n")
	if st.Scheme != "" && st.Scheme != "md5" {
		b.WriteString("mac " + st.Scheme + "\n")
	}
	body := b.String()
	return body + "sum " + hex32(crc32.ChecksumIEEE([]byte(body))) + "\n"
}

// hex32 renders v as eight lower-case hex digits, the sum line's format.
func hex32(v uint32) string {
	s := strconv.FormatUint(uint64(v), 16)
	return "00000000"[len(s):] + s
}

// decodeKey parses a key line's 2·KeySize hex digits into *key. It parses
// with strconv, not encoding/hex, whose error type formats with fmt.
func decodeKey(key *[KeySize]byte, s string) bool {
	if len(s) != 2*KeySize {
		return false
	}
	for i := range key {
		v, err := strconv.ParseUint(s[2*i:2*i+2], 16, 8)
		if err != nil {
			return false
		}
		key[i] = byte(v)
	}
	return true
}

// writeKeyState atomically replaces path with st and refreshes the `.bak`
// replica Open recovers from. The replica write is best-effort: the
// main file is the ring's source of truth, and a replica that trails by one
// epoch still verifies within the grace window.
func writeKeyState(path string, st KeyState) error {
	blob := keyStateBlob(st)
	if err := writeFileAtomic(path, blob); err != nil {
		return err
	}
	_ = writeFileAtomic(path+keyStateBackup, blob)
	return nil
}

// writeFileAtomic replaces path with data via tmp file + fsync + rename
// (mode 0600), so a crash mid-write can never leave a torn main file — the
// old content survives until the rename commits a fully synced new one.
func writeFileAtomic(path, data string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".keyring-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.WriteString(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself; best-effort, some filesystems refuse
	// directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
