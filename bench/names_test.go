package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkDoc mirrors BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	// A README table row that documents a metric or workload starts with
	// its backticked name.
	readmeRowRE = regexp.MustCompile("(?m)^\\| `([A-Za-z0-9_.-]+)` \\|")
)

func sortedSet(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := sortedSet(got), sortedSet(want)
	in := func(set []string, s string) bool {
		i := sort.SearchStrings(set, s)
		return i < len(set) && set[i] == s
	}
	for _, s := range g {
		if !in(w, s) {
			t.Errorf("%s: %q is extra", what, s)
		}
	}
	for _, s := range w {
		if !in(g, s) {
			t.Errorf("%s: %q is missing", what, s)
		}
	}
	for i := 1; i < len(g); i++ {
		if g[i] == g[i-1] {
			t.Errorf("%s: %q appears twice", what, g[i])
		}
	}
}

// TestNamesAgree holds the three places a name lives to one another: what a
// run emits (names.go; runWorkload refuses to finish with a declared metric
// unmeasured), what BENCHMARK.json lists, and what README.md documents.
func TestNamesAgree(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}

	var codeWL, codeE2E, codeLayer []string
	for _, w := range workloads {
		codeWL = append(codeWL, w.Name)
	}
	for _, m := range endToEnd {
		codeE2E = append(codeE2E, m.Name)
	}
	for _, m := range perLayer {
		codeLayer = append(codeLayer, m.Name)
	}

	var docWL, docE2E, docLayer []string
	for i, w := range doc.Workloads {
		docWL = append(docWL, w.Name)
		if w.Why != workloads[i].Why {
			t.Errorf("workload %s: BENCHMARK.json's why differs from names.go", w.Name)
		}
		if len([]rune(w.Why)) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range doc.EndToEnd {
		docE2E = append(docE2E, m.Name)
		for _, c := range endToEnd {
			if c.Name == m.Name && (c.Unit != m.Unit || c.Better != m.Better || c.Bound != m.Bound) {
				t.Errorf("%s: BENCHMARK.json says %s/%s/%v, names.go %s/%s/%v", m.Name, m.Unit, m.Better, m.Bound, c.Unit, c.Better, c.Bound)
			}
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		docLayer = append(docLayer, m.Name)
		for _, c := range perLayer {
			if c.Name == m.Name && (c.Unit != m.Unit || c.Better != m.Better) {
				t.Errorf("%s: BENCHMARK.json says %s/%s, names.go %s/%s", m.Name, m.Unit, m.Better, c.Unit, c.Better)
			}
		}
	}
	sameSet(t, "BENCHMARK.json workloads vs names.go", docWL, codeWL)
	sameSet(t, "BENCHMARK.json end_to_end vs names.go", docE2E, codeE2E)
	sameSet(t, "BENCHMARK.json per_layer vs names.go", docLayer, codeLayer)

	var documented []string
	for _, m := range readmeRowRE.FindAllSubmatch(readme, -1) {
		documented = append(documented, string(m[1]))
	}
	// A workload is documented twice: in the why table and in the sizing table.
	seen := map[string]int{}
	var uniq []string
	for _, n := range documented {
		if seen[n]++; seen[n] == 1 {
			uniq = append(uniq, n)
		}
	}
	for _, w := range codeWL {
		if seen[w] != 2 {
			t.Errorf("README.md documents workload %s in %d tables, want 2 (why, sizing)", w, seen[w])
		}
	}
	for n, c := range seen {
		if c > 1 && findWorkload(n) == nil {
			t.Errorf("README.md documents %s %d times", n, c)
		}
	}
	all := append(append(append([]string(nil), codeWL...), codeE2E...), codeLayer...)
	sameSet(t, "README.md tables vs names.go", uniq, all)

	for _, n := range all {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if n := len(codeWL); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(codeE2E); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(codeLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
}

func TestMixSharesSumToOne(t *testing.T) {
	for i := range workloads {
		sum := 0.0
		for _, m := range mixOf(&workloads[i]) {
			sum += m.Share
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Errorf("%s: mix shares sum to %v", workloads[i].Name, sum)
		}
	}
}
