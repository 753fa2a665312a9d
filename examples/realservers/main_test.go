package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRun runs the program on loopback sockets. Its ports and timings differ
// from run to run, so what is checked is that it succeeds and, per
// resolution, the name, the answer and the upstream count it prints.
func TestRun(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run()
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^(\S+) +(.+?) +\S+ upstream=(\d+)$`)
	var got []string
	for _, line := range strings.Split(string(printed), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			got = append(got, m[1]+" | "+m[2]+" | "+m[3])
		}
	}
	want := []string{
		"www.foo.com | www.foo.com 300 IN A 198.51.100.10 | 2",
		"alias.foo.com | www.foo.com 300 IN A 198.51.100.10 | 2",
		"www.foo.com | www.foo.com 300 IN A 198.51.100.10 | 0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("the resolutions printed\n%s\nwant\n%s\nin\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"), printed)
	}
}
