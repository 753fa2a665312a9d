package main

import (
	"bytes"
	"flag"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// stdFlags defines fs's flags, at their current values, on a flag.FlagSet.
func stdFlags(fs flagSet, out *bytes.Buffer) *flag.FlagSet {
	std := flag.NewFlagSet("dnsguardd", flag.ContinueOnError)
	std.SetOutput(out)
	for _, d := range fs {
		switch p := d.p.(type) {
		case *string:
			std.String(d.name, *p, d.usage)
		case *bool:
			std.Bool(d.name, *p, d.usage)
		case *int:
			std.Int(d.name, *p, d.usage)
		case *float64:
			std.Float64(d.name, *p, d.usage)
		case *time.Duration:
			std.Duration(d.name, *p, d.usage)
		}
	}
	return std
}

// value is what p points at.
func value(p any) any {
	switch p := p.(type) {
	case *string:
		return *p
	case *bool:
		return *p
	case *int:
		return *p
	case *float64:
		return *p
	case *time.Duration:
		return *p
	}
	return nil
}

// TestFlagsMatchPackageFlag runs dnsguardd's parser and Go's flag package
// over the same command lines: each must leave every flag the same value and
// the same arguments over, or fail with the same text, and print the same
// usage where flag prints it.
func TestFlagsMatchPackageFlag(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-listen", "10.0.0.1:53"},
		{"-listen=10.0.0.1:53"},
		{"--listen=10.0.0.1:53"},
		{"--listen", "10.0.0.1:53", "-zone=foo.com"},
		{"-shards", "4", "-batch=0x20", "-threshold", "2.5e3", "--stats=3s", "-drain-timeout", "0"},
		{"-shards", "1_000", "-threshold", "-1", "-key-rotate", "1h30m"},
		{"-proxy"},
		{"-proxy=false"},
		{"-proxy", "false", "-zone", "foo.com"}, // parsing stops at "false"
		{"-proxy=0", "-mitigate=T", "-keyring-follow=true"},
		{"-zone", "foo.com", "--", "-shards", "3"},
		{"-zone", "foo.com", "positional", "-shards", "3"},
		{"-", "-shards", "3"},
		{"-zone", "a=b=c"},
		{"-zone="},
		{"-stats", "10"},
		{"-shards", "two"},
		{"-shards", "99999999999999999999"},
		{"-threshold", "lots"},
		{"-threshold", "1e400"},
		{"-proxy=maybe"},
		{"-zone"},
		{"-queue-depth", "8"},
		{"---zone", "foo.com"},
		{"-=foo"},
		{"-h"},
		{"-help"},
		{"--help", "-shards", "two"},
	} {
		var o options
		ours := o.flags()
		var out bytes.Buffer
		std := stdFlags(ours, &out)
		stdErr := std.Parse(args)
		rest, err := ours.parse(args)
		switch {
		case (err == nil) != (stdErr == nil):
			t.Errorf("%q: error %v, flag's %v", args, err, stdErr)
		case err != nil:
			if err.Error() != stdErr.Error() {
				t.Errorf("%q: error %q, flag's %q", args, err, stdErr)
			}
			want := printed(err, ours)
			if got := out.String(); got != want {
				t.Errorf("%q: prints\n%s\nflag prints\n%s", args, want, got)
			}
		default:
			if !slices.Equal(rest, std.Args()) {
				t.Errorf("%q: leaves %q, flag leaves %q", args, rest, std.Args())
			}
			for _, d := range ours {
				if got, want := value(d.p), std.Lookup(d.name).Value.(flag.Getter).Get(); got != want {
					t.Errorf("%q: -%s is %v, flag's %v", args, d.name, got, want)
				}
			}
		}
	}
}

// printed is what run prints on stderr when parsing fails with err.
func printed(err error, fs flagSet) string {
	if err == errHelp {
		return fs.usage("dnsguardd")
	}
	return err.Error() + "\n" + fs.usage("dnsguardd")
}

// TestFlagsExit: the daemon itself exits 0 on -h, listing every flag with
// its default, and 2 on a flag it does not define, as flag.Parse exits.
func TestFlagsExit(t *testing.T) {
	bin := filepath.Join(buildDaemons(t, "dnsguardd"), "dnsguardd")
	var o options
	fs := o.flags()
	for _, c := range []struct {
		args []string
		code int
		err  string
	}{
		{[]string{"-h"}, 0, ""},
		{[]string{"-queue-depth", "8"}, 2, "flag provided but not defined: -queue-depth\n"},
	} {
		cmd := exec.Command(bin, c.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		want := c.err + fs.usage(bin)
		if code != c.code || stderr.String() != want {
			t.Errorf("dnsguardd %s: exit %d, stderr\n%s\nwant exit %d, stderr\n%s", strings.Join(c.args, " "), code, &stderr, c.code, want)
		}
	}
	if n := strings.Count(fs.usage(bin), "\n  -"); n != len(fs) {
		t.Errorf("usage lists %d flags of %d", n, len(fs))
	}
}
