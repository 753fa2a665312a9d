//go:build !(linux && (amd64 || arm64))

package cookie

import "crypto/rand"

// readKey fills key from the platform's CSPRNG.
func readKey(key *[KeySize]byte) error {
	_, err := rand.Read(key[:])
	return err
}
