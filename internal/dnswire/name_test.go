package dnswire

import (
	"errors"
	"strings"
	"testing"
)

func TestParseName(t *testing.T) {
	tests := []struct {
		in      string
		want    Name
		wantErr error
	}{
		{"", Root, nil},
		{".", Root, nil},
		{"com", "com", nil},
		{"com.", "com", nil},
		{"WWW.Foo.COM", "www.foo.com", nil},
		{"a.b.c.d.e", "a.b.c.d.e", nil},
		{strings.Repeat("a", 63) + ".com", Name(strings.Repeat("a", 63) + ".com"), nil},
		{strings.Repeat("a", 64) + ".com", "", ErrLabelTooLong},
		{"foo..com", "", ErrEmptyLabel},
		{".foo.com", "", ErrEmptyLabel},
	}
	for _, tt := range tests {
		got, err := ParseName(tt.in)
		if tt.wantErr != nil {
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("ParseName(%q) err = %v, want %v", tt.in, err, tt.wantErr)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParseName(%q) = %q, %v; want %q", tt.in, got, err, tt.want)
		}
	}
}

// Names fold case in ASCII only (RFC 4343 §3): a letter past ASCII, an
// invalid UTF-8 byte and KELVIN SIGN are octets of the name, kept as they
// came, while A–Z fold.
func TestParseNameFoldsASCIIOnly(t *testing.T) {
	for in, want := range map[string]Name{
		"\xc3\x89ww.foo.com": "\xc3\x89ww.foo.com", // É, not é
		"\xffww.foo.com":     "\xffww.foo.com",     // not U+FFFD
		"\xe2\x84\xaakk.com": "\xe2\x84\xaakk.com", // KELVIN SIGN, not k
		"WWW.Foo.COM":        "www.foo.com",
	} {
		if got, err := ParseName(in); err != nil || got != want {
			t.Errorf("ParseName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestParseNameTotalLength(t *testing.T) {
	// 4 labels of 63 bytes = 4*64+1 = 257 wire bytes > 255.
	long := strings.Repeat(strings.Repeat("a", 63)+".", 4)
	if _, err := ParseName(long); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("err = %v, want ErrNameTooLong", err)
	}
}

func TestNameAccessors(t *testing.T) {
	n := MustName("www.foo.com")
	if got := n.FirstLabel(); got != "www" {
		t.Errorf("FirstLabel = %q", got)
	}
	if got := n.Parent(); got != "foo.com" {
		t.Errorf("Parent = %q", got)
	}
	if got := n.NumLabels(); got != 3 {
		t.Errorf("NumLabels = %d", got)
	}
	if !n.IsSubdomainOf(MustName("foo.com")) {
		t.Error("www.foo.com should be under foo.com")
	}
	if !n.IsSubdomainOf(Root) {
		t.Error("everything is under the root")
	}
	if n.IsSubdomainOf(MustName("oo.com")) {
		t.Error("www.foo.com is not under oo.com")
	}
	if MustName("com").Parent() != Root {
		t.Error("parent of com should be root")
	}
	if Root.Parent() != Root {
		t.Error("parent of root should be root")
	}
	if Root.FirstLabel() != "" {
		t.Error("root has no first label")
	}
}

func TestChildOf(t *testing.T) {
	tests := []struct {
		name, zone string
		want       string
		ok         bool
	}{
		{"www.foo.com", ".", "com", true},
		{"www.foo.com", "com", "foo.com", true},
		{"www.foo.com", "foo.com", "www.foo.com", true},
		{"www.foo.com", "www.foo.com", "", false},
		{"www.foo.com", "bar.org", "", false},
		{"com", ".", "com", true},
	}
	for _, tt := range tests {
		got, ok := MustName(tt.name).ChildOf(MustName(tt.zone))
		if ok != tt.ok || (ok && got != MustName(tt.want)) {
			t.Errorf("ChildOf(%q, %q) = %q, %v; want %q, %v", tt.name, tt.zone, got, ok, tt.want, tt.ok)
		}
	}
}

func TestPrependLabel(t *testing.T) {
	n, err := MustName("foo.com").PrependLabel("prabcd1234")
	if err != nil || n != "prabcd1234.foo.com" {
		t.Fatalf("PrependLabel = %q, %v", n, err)
	}
	if _, err := MustName("com").PrependLabel(strings.Repeat("x", 64)); !errors.Is(err, ErrLabelTooLong) {
		t.Fatalf("oversized label err = %v", err)
	}
	r, err := Root.PrependLabel("com")
	if err != nil || r != "com" {
		t.Fatalf("PrependLabel(root) = %q, %v", r, err)
	}
}

func TestWireLen(t *testing.T) {
	if got := Root.WireLen(); got != 1 {
		t.Errorf("root WireLen = %d, want 1", got)
	}
	if got := MustName("foo.com").WireLen(); got != 9 { // 3 foo 3 com 0
		t.Errorf("foo.com WireLen = %d, want 9", got)
	}
}
