package metrics

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The renderer the registry had when every scrape built its snapshot, its
// histogram series names and its text with fmt, kept as the reference the
// append path must match byte for byte.

func refSnapshot(r *Registry) []Sample {
	ms := map[string]metric{}
	var names []string
	for i, m := range r.ms {
		ms[r.names[i]] = m
		names = append(names, r.names[i])
	}
	sort.Strings(names)
	var out []Sample
	emit := func(s Sample) { out = append(out, s) }
	for _, name := range names {
		switch m := ms[name].(type) {
		case histMetric:
			refHistogram(m.Histogram, name, emit)
		case mergedMetric:
			for _, s := range refMerged(m.regs) {
				emit(Sample{m.prefix + s.Name, s.Value})
			}
		default:
			m.sample(name, emit)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func refHistogram(h *Histogram, name string, emit func(Sample)) {
	emit(Sample{name + "_count", float64(h.count.Load())})
	emit(Sample{name + "_sum_ns", float64(h.sum.Load())})
	emit(Sample{name + "_p50_ns", float64(h.Quantile(0.50))})
	emit(Sample{name + "_p90_ns", float64(h.Quantile(0.90))})
	emit(Sample{name + "_p99_ns", float64(h.Quantile(0.99))})
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum == 0 {
			continue
		}
		label := "inf"
		if i < len(h.bounds) {
			label = fmt.Sprintf("%dus", h.bounds[i].Microseconds())
		}
		emit(Sample{name + "_le_" + label, float64(cum)})
	}
}

func refMerged(regs []*Registry) []Sample {
	sums := map[string]float64{}
	hists := map[string]*Histogram{}
	for _, r := range regs {
		for i, m := range r.ms {
			name := r.names[i]
			if hm, ok := m.(histMetric); ok {
				if hists[name] == nil {
					hists[name] = NewHistogramBounds(append([]time.Duration(nil), hm.bounds...))
				}
				if err := MergeHistogram(hists[name], hm.Histogram); err != nil {
					panic(err)
				}
				continue
			}
			m.sample(name, func(s Sample) { sums[s.Name] += s.Value })
		}
	}
	var out []Sample
	for name, v := range sums {
		out = append(out, Sample{name, v})
	}
	for name, h := range hists {
		refHistogram(h, name, func(s Sample) { out = append(out, s) })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func refFormatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func refText(samples []Sample) string {
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b, "%s %s\n", s.Name, refFormatValue(s.Value))
	}
	return b.String()
}

func refJSON(samples []Sample) string {
	b := []byte{'{'}
	for i, s := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		for _, c := range s.Name {
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', byte(c))
			case c < 0x20:
				b = fmt.Appendf(b, `\u%04x`, c)
			default:
				b = append(b, string(c)...)
			}
		}
		b = append(b, '"', ':')
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			b = append(b, "null"...)
		} else {
			b = append(b, refFormatValue(s.Value)...)
		}
	}
	return string(append(b, '}', '\n'))
}

// renderRegistry is one of every kind of series: Func and FuncUint values
// negative, non-integral, huge, non-finite and zero; an empty histogram; a
// filled one whose observations reach its overflow bucket; one on bounds of
// its own; and a MergedInto roll-up of two registries holding the same names.
func renderRegistry() *Registry {
	r := NewRegistry()
	for i, v := range []float64{0, 1, -1, 42, -7.5, 0.1, 1.5e-7, 1e21, -1e21, 1 << 53, math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		r.Func(fmt.Sprintf("func_%02d", i), constant(v))
	}
	r.FuncUint("func_uint_max", func() uint64 { return math.MaxUint64 })
	r.FuncUint("func_uint_7", func() uint64 { return 7 })
	r.Func("q\"b\\n\nc\x01é\xff", constant(0.25))
	r.RegisterHistogram("hist_empty", NewHistogram())
	filled := NewHistogram()
	for _, d := range []time.Duration{-time.Microsecond, 0, 3 * time.Microsecond, 700 * time.Microsecond, 40 * time.Millisecond, time.Hour} {
		filled.Observe(d)
	}
	r.RegisterHistogram("hist_filled", filled)
	r.Func("hist_filled_a", constant(3)) // sorts among the histogram's series
	own := NewHistogramBounds([]time.Duration{time.Millisecond, time.Second})
	own.Observe(2 * time.Millisecond)
	r.RegisterHistogram("hist_own", own)
	sites := []*Registry{NewRegistry(), NewRegistry()}
	for i, site := range sites {
		site.Func("x", constant(float64(i)+0.5))
		site.FuncUint("y", func() uint64 { return uint64(10 * (i + 1)) })
		observed(site, "lat", time.Duration(i+1)*time.Millisecond)
	}
	MergedInto(r, "fleet_", sites...)
	return r
}

// TestRenderMatchesFmt: the text and JSON appended with strconv, the
// histogram names built once and the snapshot sorted in place are byte for
// byte what the fmt renderer wrote, through WriteText, WriteJSON and the
// /metrics and /debug/vars endpoints alike.
func TestRenderMatchesFmt(t *testing.T) {
	r := renderRegistry()
	ref := refSnapshot(r)
	wantText, wantJSON := refText(ref), refJSON(ref)
	if !strings.Contains(wantText, "hist_filled_le_inf 6\n") || !strings.Contains(wantText, "fleet_lat_count 2\n") ||
		!strings.Contains(wantText, "hist_empty_p99_ns 0\n") || !strings.Contains(wantText, "func_13 NaN\n") {
		t.Fatalf("the reference lacks a kind of series:\n%s", wantText)
	}
	for i := 0; i < 2; i++ { // the second time round, the snapshot is reused
		var text, js bytes.Buffer
		if err := r.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if text.String() != wantText {
			t.Errorf("WriteText:\n%s\nthe fmt renderer:\n%s", text.String(), wantText)
		}
		if js.String() != wantJSON {
			t.Errorf("WriteJSON:\n%s\nthe fmt renderer:\n%s", js.String(), wantJSON)
		}
	}
	ln, err := serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for path, want := range map[string]string{"/metrics": wantText, "/debug/vars": wantJSON} {
		if _, body := fetch(t, "GET", "http://"+ln.Addr().String()+path); body != want {
			t.Errorf("GET %s:\n%s\nthe fmt renderer:\n%s", path, body, want)
		}
	}
}

// TestRenderAllocs: once a registry has been rendered into a buffer,
// rendering it again into that buffer — a snapshot with a histogram that has
// observations and the runtime series, its text and its JSON — allocates
// nothing.
func TestRenderAllocs(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 12345
	r.FuncUint("counter", func() uint64 { return n })
	r.Func("ratio", constant(0.75))
	h := NewHistogram()
	for d := time.Microsecond; d < time.Minute; d *= 3 {
		h.Observe(d)
	}
	r.RegisterHistogram("lat", h)
	RuntimeInto(r)
	var b []byte
	render := func() { b = r.appendJSON(r.appendText(b[:0])) }
	render()
	if n := testing.AllocsPerRun(100, render); n != 0 {
		t.Errorf("rendering a warmed registry allocates %.1f times, want 0", n)
	}
}

// TestResponderReusesBuffers: the responder's connections take their
// buffers from a free list of at most maxConns, so scrapes one after
// another allocate no buffer once the first has returned its own.
func TestResponderReusesBuffers(t *testing.T) {
	s := startResponder(t, time.Minute, probe("/readyz", nil))
	for i := 0; i < 3*maxConns; i++ {
		if resp := raw(t, s.Addr(), "GET /readyz HTTP/1.0\r\n\r\n"); !strings.HasSuffix(resp, "\r\n\r\nok\n") {
			t.Fatalf("/readyz answered %q", resp)
		}
	}
	// Each connection gives its buffer back before it closes, so the last
	// one's is back by the time its answer ended.
	s.mu.Lock()
	free := len(s.free)
	s.mu.Unlock()
	if free != 1 {
		t.Errorf("%d sequential requests left %d buffers on the free list, want 1", 3*maxConns, free)
	}
}
