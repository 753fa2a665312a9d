package metrics

import "runtime/metrics"

// runtimeSeries maps the Go runtime figures that explain a daemon's resident
// memory and collector cost to their exported names: live heap objects, the
// heap size the collector is pacing toward, everything the runtime has
// mapped, completed GC cycles, CPU seconds spent in the collector, and the
// bytes and objects ever allocated — divided by a daemon's packet counter
// over the same interval, the garbage it makes per packet.
var runtimeSeries = [...]struct{ key, name string }{
	{"/memory/classes/heap/objects:bytes", "runtime_heap_objects_bytes"},
	{"/gc/heap/goal:bytes", "runtime_gc_heap_goal_bytes"},
	{"/memory/classes/total:bytes", "runtime_memory_total_bytes"},
	{"/gc/cycles/total:gc-cycles", "runtime_gc_cycles"},
	{"/cpu/classes/gc/total:cpu-seconds", "runtime_gc_cpu_seconds"},
	{"/gc/heap/allocs:bytes", "runtime_heap_allocs_bytes_total"},
	{"/gc/heap/allocs:objects", "runtime_heap_allocs_objects_total"},
}

// runtimeMetric reads every runtimeSeries entry in one runtime/metrics.Read
// per snapshot, into samples it keeps; that call does not stop the world.
type runtimeMetric [len(runtimeSeries)]metrics.Sample

func (s *runtimeMetric) sample(_ string, emit func(Sample)) {
	for i := range s {
		s[i].Name = runtimeSeries[i].key
	}
	metrics.Read(s[:])
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			emit(Sample{runtimeSeries[i].name, float64(s[i].Value.Uint64())})
		case metrics.KindFloat64:
			emit(Sample{runtimeSeries[i].name, s[i].Value.Float64()})
		}
	}
}

// RuntimeInto registers the runtime_* gauges on r, read at scrape time. It
// is for a daemon's own HTTP registry: the figures differ from run to run,
// so registries whose export is compared against golden files leave it out.
func RuntimeInto(r *Registry) { r.add("runtime", new(runtimeMetric)) }
