package cookie

// Open is the package's single constructor: every combination of key
// material, restored state, state file, follower mode and MAC scheme is one
// Options value.

import (
	"errors"
	"os"

	"dnsguard/internal/errs"
)

// Options configures Open. The zero value creates a fresh random keyring
// under the default (MD5) scheme.
type Options struct {
	// Key, when non-nil, seeds both epoch slots with this fixed key
	// instead of fresh random material — deterministic tests and
	// simulations. Ignored when an existing state (State or a readable
	// StateFile) supplies key material.
	Key *[KeySize]byte
	// State, when non-nil, restores a previously captured keyring state:
	// cookies minted under State.Epoch and State.Epoch-1 verify.
	State *KeyState
	// StateFile, when non-empty, is the keyring's persistent home — what a
	// daemon restarts on. Without Follow the file is loaded if present
	// (cookies minted before the restart keep verifying) or created, and
	// the authenticator is bound to it so every rotation persists before
	// it is published. With State set, the restored ring is written there.
	//
	// A truncated or corrupt main file is not fatal and never silently
	// replaced with fresh keys: Open falls back to the `.bak` replica
	// written alongside every state update. The replica may trail the main
	// file by one rotation, which the verifier's previous-epoch grace
	// window absorbs. Only when both copies are unreadable does Open fail
	// — deliberately closed, because minting a new ring would orphan every
	// cookie the population has cached.
	StateFile string
	// Follow opens StateFile as a read-only handle on a fleet-shared
	// keyring: the file must exist and is never written — a follower must
	// not race the owner to create the ring — Reload adopts the owner's
	// rotations, and Rotate refuses with ErrFollowHandle.
	Follow bool
	// MAC selects the cookie MAC scheme for a newly created ring. nil
	// means the default, MD5. A ring restored from State or StateFile
	// keeps the scheme its state tags — switching schemes mid-ring would
	// orphan every cookie the population has cached — and MAC is only a
	// fallback for states with no tag.
	MAC MACScheme
}

// Open builds an Authenticator from opts. See Options for the semantics of
// each field.
func Open(opts Options) (*Authenticator, error) {
	switch {
	case opts.Follow:
		if opts.StateFile == "" {
			return nil, errors.New("cookie: Open: Follow requires StateFile")
		}
		st, err := ReadKeyState(opts.StateFile)
		if err != nil {
			return nil, err
		}
		a, err := restore(st, opts.MAC)
		if err != nil {
			return nil, err
		}
		a.source = opts.StateFile
		a.follow = true
		return a, nil

	case opts.State != nil:
		a, err := restore(*opts.State, opts.MAC)
		if err != nil {
			return nil, err
		}
		if opts.StateFile != "" {
			if err := a.BindStateFile(opts.StateFile); err != nil {
				return nil, err
			}
		}
		return a, nil

	case opts.StateFile != "":
		return openKeyringFile(opts)
	}
	return fresh(opts)
}

// fresh creates a brand-new ring from opts.Key (or random material) under
// opts.MAC.
func fresh(opts Options) (*Authenticator, error) {
	mac := opts.MAC
	if mac == nil {
		mac = MD5
	}
	var key [KeySize]byte
	if opts.Key != nil {
		key = *opts.Key
	} else if err := readKey(&key); err != nil {
		return nil, errs.Wrap("cookie: generating key: "+err.Error(), err)
	}
	a := &Authenticator{}
	// Until the first rotation both slots hold the same key so epoch
	// parity never rejects a fresh cookie.
	a.ring.Store(newRing(0, [2][KeySize]byte{key, key}, mac))
	return a, nil
}

// restore builds an authenticator from a captured state. The state's scheme
// tag wins; fallback applies only when the state carries none.
func restore(st KeyState, fallback MACScheme) (*Authenticator, error) {
	mac := fallback
	if st.Scheme != "" {
		var err error
		mac, err = MACByName(st.Scheme)
		if err != nil {
			return nil, err
		}
	}
	if mac == nil {
		mac = MD5
	}
	a := &Authenticator{}
	a.ring.Store(newRing(st.Epoch, st.Keys, mac))
	return a, nil
}

// openKeyringFile is the load-or-create path behind Open without Follow:
// restore the ring at opts.StateFile (recovering from the `.bak` replica if
// the main copy is corrupt or lost, as Options.StateFile documents), or
// create a fresh persisted ring when neither copy exists.
func openKeyringFile(opts Options) (*Authenticator, error) {
	path := opts.StateFile
	if _, err := os.Stat(path); err == nil {
		st, err := ReadKeyState(path)
		if err != nil {
			bak, bakErr := ReadKeyState(path + keyStateBackup)
			if bakErr != nil {
				return nil, errs.Wrap(err.Error()+" (backup: "+bakErr.Error()+")", err)
			}
			st = bak
		}
		a, err := restore(st, opts.MAC)
		if err != nil {
			return nil, err
		}
		if err := a.BindStateFile(path); err != nil {
			return nil, err
		}
		return a, nil
	} else if !os.IsNotExist(err) {
		return nil, errs.Wrap("cookie: keyring "+path+": "+err.Error(), err)
	}
	// No main file. A surviving replica means the ring existed and the main
	// file was lost mid-replace: recover it rather than create fresh keys.
	if bak, err := ReadKeyState(path + keyStateBackup); err == nil {
		a, err := restore(bak, opts.MAC)
		if err != nil {
			return nil, err
		}
		if err := a.BindStateFile(path); err != nil {
			return nil, err
		}
		return a, nil
	}
	a, err := fresh(opts)
	if err != nil {
		return nil, err
	}
	if err := a.BindStateFile(path); err != nil {
		return nil, err
	}
	return a, nil
}
