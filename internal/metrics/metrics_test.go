package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A name holds one series: a Func under a histogram's name panics.
func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.RegisterHistogram("x", NewHistogram())
	defer func() {
		if recover() == nil {
			t.Fatalf("Func(\"x\") after RegisterHistogram(\"x\") did not panic")
		}
	}()
	r.Func("x", constant(0))
}

func TestFuncAdapter(t *testing.T) {
	r := NewRegistry()
	var backing uint64 = 42
	r.FuncUint("legacy_field", func() uint64 { return backing })
	if v, ok := r.Get("legacy_field"); !ok || v != 42 {
		t.Fatalf("Get(legacy_field) = %v, %v; want 42, true", v, ok)
	}
	backing = 43
	if v, _ := r.Get("legacy_field"); v != 43 {
		t.Fatalf("adapter did not track backing field: got %v", v)
	}
}

// TestConcurrentIncrements is the -race workhorse: many goroutines hammer
// one atomic field behind a FuncUint and one histogram while snapshots run.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	h := NewHistogram()
	r.FuncUint("shared_counter", n.Load)
	r.RegisterHistogram("shared_hist", h)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%500 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got, _ := r.Get("shared_counter"); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
	if got, _ := r.Get("shared_hist_count"); got != workers*perWorker {
		t.Fatalf("histogram count = %v, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogramBounds([]time.Duration{
		time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond,
	})
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Microsecond, 0},    // clock regression lands low, not lost
		{time.Microsecond, 0},     // bounds are inclusive upper edges
		{time.Microsecond + 1, 1}, // just past a bound moves up a bucket
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3}, // overflow bucket
		{time.Hour, 3},
	}
	for _, tc := range cases {
		if got := h.bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	// 100 observations spread 1..100 ms: p50 should land near 50 ms within
	// the 2x bucket resolution, and never outside [1ms, 128ms].
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050*time.Millisecond {
		t.Fatalf("sum = %v, want 5.05s", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 25*time.Millisecond || p50 > 100*time.Millisecond {
		t.Errorf("p50 = %v, outside [25ms, 100ms]", p50)
	}
	// 2x buckets bound the relative error at one bucket width: the true p99
	// (99 ms) must be reported within its containing bucket (..131.072 ms].
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 132*time.Millisecond {
		t.Errorf("p99 = %v, want within [p50, 132ms]", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Errorf("quantiles not monotone: q0=%v q1=%v", h.Quantile(0), h.Quantile(1))
	}
}

func TestSnapshotDeterministicOrdering(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately unsorted order.
	zero := constant(0)
	r.Func("zeta", zero)
	r.Func("alpha", zero)
	r.Func("mid", zero)
	h := NewHistogram()
	r.RegisterHistogram("beta", h)
	h.Observe(3 * time.Microsecond)

	first := r.Snapshot()
	names := make([]string, len(first))
	for i, s := range first {
		names[i] = s.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	second := r.Snapshot()
	if len(second) != len(first) {
		t.Fatalf("snapshot size changed: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("snapshot not deterministic at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Func("b_counter", constant(2))
	r.Func("a_gauge", constant(-1))

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := "a_gauge -1\nb_counter 2\n"
	if text.String() != want {
		t.Fatalf("WriteText = %q, want %q", text.String(), want)
	}

	// encoding/json is the reference: byte-identical on finite values.
	var js, ref bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&ref).Encode(map[string]float64{"a_gauge": -1, "b_counter": 2}); err != nil {
		t.Fatal(err)
	}
	if js.String() != ref.String() {
		t.Fatalf("WriteJSON = %q, json.Encoder writes %q", js.String(), ref.String())
	}

	// A non-finite value, which json.Encoder refuses whole, is null, and a
	// name is quoted whatever it holds.
	odd := "q\"b\\n\nc\x01é\xff"
	r.Func("nan", math.NaN)
	r.Func("inf", func() float64 { return math.Inf(-1) })
	r.Func(odd, func() float64 { return 0.25 })
	js.Reset()
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var obj map[string]*float64
	if err := json.Unmarshal(js.Bytes(), &obj); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, js.Bytes())
	}
	if len(obj) != 5 || obj["nan"] != nil || obj["inf"] != nil || *obj["a_gauge"] != -1 || *obj["b_counter"] != 2 {
		t.Fatalf("WriteJSON = %s", js.Bytes())
	}
	if v := obj[strings.ToValidUTF8(odd, "\ufffd")]; v == nil || *v != 0.25 {
		t.Fatalf("WriteJSON lost the series named %q: %s", odd, js.Bytes())
	}
}

func TestDelta(t *testing.T) {
	r := NewRegistry()
	var n float64
	r.Func("n", func() float64 { return n })
	before := r.Snapshot()
	n += 7
	after := r.Snapshot()
	d := Delta(before, after)
	if len(d) != 1 || d[0].Name != "n" || d[0].Value != 7 {
		t.Fatalf("Delta = %v, want [{n 7}]", d)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Func("guard_remote_received", constant(9))
	ln, err := serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "guard_remote_received 9") {
		t.Fatalf("/metrics missing series: %q", body)
	}
	var obj map[string]float64
	if err := json.Unmarshal([]byte(get("/debug/vars")), &obj); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if obj["guard_remote_received"] != 9 {
		t.Fatalf("/debug/vars = %v", obj)
	}
}

func TestDumpEvery(t *testing.T) {
	r := NewRegistry()
	r.Func("x", constant(1))
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { DumpEvery(r, time.Millisecond, w, stop); close(done) }()
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "-- metrics --") && strings.Contains(s, "x 1") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no dump within deadline; buffer: %q", s)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestRuntimeInto(t *testing.T) {
	r := NewRegistry()
	RuntimeInto(r)
	for _, name := range []string{
		"runtime_heap_objects_bytes", "runtime_gc_heap_goal_bytes", "runtime_memory_total_bytes",
		"runtime_gc_cycles", "runtime_gc_cpu_seconds",
		"runtime_heap_allocs_bytes_total", "runtime_heap_allocs_objects_total",
	} {
		v, ok := r.Get(name)
		if !ok {
			t.Errorf("%s is not exported", name)
		} else if v < 0 || (name != "runtime_gc_cycles" && name != "runtime_gc_cpu_seconds" && v == 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}
