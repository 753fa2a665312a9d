package dnswire

import (
	"errors"
	"strconv"
	"strings"

	"dnsguard/internal/errs"
)

// Name is a fully-qualified domain name in canonical form: dotted, without a
// trailing dot, its ASCII letters in lower case and every other octet as it
// came (RFC 4343 §3: DNS folds case in ASCII only, and an octet ≥ 0x80 is not
// a letter). The root name is ".". Construct Names with ParseName (or
// MustName in tests/fixtures) so invariants hold.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Name validation errors.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label")
)

// ParseName canonicalizes and validates s as a domain name. A trailing dot is
// accepted and removed; the empty string and "." both denote the root.
func ParseName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = lowerASCII(strings.TrimSuffix(s, "."))
	wire := 1 // terminating zero octet
	for _, label := range strings.Split(s, ".") {
		switch {
		case label == "":
			return "", errs.Wrap(ErrEmptyLabel.Error()+" in "+strconv.Quote(s), ErrEmptyLabel)
		case len(label) > MaxLabelLen:
			return "", errs.Wrap(ErrLabelTooLong.Error()+": "+strconv.Quote(label), ErrLabelTooLong)
		}
		wire += 1 + len(label)
	}
	if wire > MaxNameWireLen {
		return "", errs.Wrap(ErrNameTooLong.Error()+": "+strconv.Quote(s), ErrNameTooLong)
	}
	return Name(s), nil
}

// lowerASCII folds A–Z to a–z byte by byte and leaves every other byte as it
// is. strings.ToLower and strings.Map would also fold non-ASCII letters and
// turn each invalid UTF-8 byte into U+FFFD, rewriting the name.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			b := []byte(s)
			for ; i < len(b); i++ {
				if 'A' <= b[i] && b[i] <= 'Z' {
					b[i] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// MustName is ParseName that panics on error; for constants and tests.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders the name with a trailing dot for the root only, matching
// common presentation format.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is the root name.
func (n Name) IsRoot() bool { return n == Root || n == "" }

// Labels returns the name's labels, most-specific first. The root has none.
func (n Name) Labels() []string {
	if n.IsRoot() {
		return nil
	}
	return strings.Split(string(n), ".")
}

// NumLabels reports the number of labels.
func (n Name) NumLabels() int {
	if n.IsRoot() {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// FirstLabel returns the leftmost (most specific) label, or "" for the root.
func (n Name) FirstLabel() string {
	if n.IsRoot() {
		return ""
	}
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return string(n[:i])
	}
	return string(n)
}

// Parent returns the name with the first label removed; the parent of a
// single-label name (and of the root) is the root.
func (n Name) Parent() Name {
	if n.IsRoot() {
		return Root
	}
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return Root
}

// IsSubdomainOf reports whether n is equal to or below parent.
func (n Name) IsSubdomainOf(parent Name) bool {
	if parent.IsRoot() {
		return true
	}
	if n == parent {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(parent))
}

// ChildOf returns the ancestor of n that is exactly one label below zone.
// For example ChildOf(www.foo.com, com) = foo.com and ChildOf(www.foo.com, .)
// = com. It reports ok=false when n is not strictly below zone. This is the
// name the DNS guard fabricates an NS record for.
func (n Name) ChildOf(zone Name) (Name, bool) {
	if !n.IsSubdomainOf(zone) || n == zone {
		return "", false
	}
	labels := n.Labels()
	depth := n.NumLabels() - zone.NumLabels()
	return Name(strings.Join(labels[depth-1:], ".")), true
}

// PrependLabel returns label.n, validating the result.
func (n Name) PrependLabel(label string) (Name, error) {
	if n.IsRoot() {
		return ParseName(label)
	}
	return ParseName(label + "." + string(n))
}

// WireLen returns the encoded (uncompressed) length of the name in octets.
func (n Name) WireLen() int {
	if n.IsRoot() {
		return 1
	}
	return len(n) + 2
}
