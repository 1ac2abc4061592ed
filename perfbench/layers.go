package main

// layers.go — per-layer figures: deltas of the program's own obs
// registries, HTTP-side splits of the benchmark's spans, and the Go
// runtime's view of a leg.

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// snapDelta returns after − before for counters and histogram buckets
// (Min/Max are not differentiable; the delta keeps after's Max and a zero
// Min so quantile clamping stays sound).
func snapDelta(before, after *obs.Snapshot) *obs.Snapshot {
	d := &obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistSnapshot{}}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		out := obs.HistSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum, Max: h.Max, Bounds: h.Bounds,
			Counts: make([]int64, len(h.Counts))}
		for i := range h.Counts {
			out.Counts[i] = h.Counts[i]
			if i < len(b.Counts) {
				out.Counts[i] -= b.Counts[i]
			}
		}
		d.Histograms[k] = out
	}
	return d
}

// mergeSnaps sums snapshots of registries with identical instruments
// (the shards of a cluster).
func mergeSnaps(snaps ...*obs.Snapshot) *obs.Snapshot {
	m := &obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistSnapshot{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			m.Counters[k] += v
		}
		for k, h := range s.Histograms {
			acc, ok := m.Histograms[k]
			if !ok {
				acc = obs.HistSnapshot{Bounds: h.Bounds, Counts: make([]int64, len(h.Counts))}
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			if h.Max > acc.Max {
				acc.Max = h.Max
			}
			for i := range h.Counts {
				acc.Counts[i] += h.Counts[i]
			}
			m.Histograms[k] = acc
		}
	}
	return m
}

// serveLayers records the serve.* per-layer figures: stage quantiles
// from delta (the traced phase) and outcome counters from total (the
// whole leg). It returns the summed self time of the stages that tile a
// request's handler time (decode, admission wait, cache lookup and
// flight wait, which covers capture, replay and encode), in µs.
func serveLayers(out *legOut, delta, total *obs.Snapshot) float64 {
	q := func(name string, p float64) float64 {
		h := delta.Histograms[name]
		if h.Count == 0 {
			return 0
		}
		return h.Quantile(p)
	}
	out.layer["serve.decode_us_p50"] = q(serve.MetricStageDecodeUS, 0.5)
	out.layer["serve.cache_lookup_us_p50"] = q(serve.MetricStageCacheLookupUS, 0.5)
	out.layer["serve.encode_us_p50"] = q(serve.MetricStageEncodeUS, 0.5)
	out.layer["serve.replay_us_p50"] = q(serve.MetricStageReplayUS, 0.5)
	out.layer["serve.replay_us_p99"] = q(serve.MetricStageReplayUS, 0.99)
	out.layer["serve.flight_wait_us_p99"] = q(serve.MetricStageFlightWaitUS, 0.99)
	out.layer["serve.admit_wait_us_p99"] = q(serve.MetricStageAdmitWaitUS, 0.99)
	out.layer["serve.capture_us_p99"] = q(serve.MetricStageCaptureUS, 0.99)
	c := total.Counters
	hits, misses := c[serve.MetricCacheHits], c[serve.MetricCacheMisses]
	if hits+misses > 0 {
		out.layer["serve.result_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out.layer["serve.stream_captures"] = float64(c[serve.MetricStreamCaptures])
	out.layer["serve.points_executed"] = float64(c[serve.MetricPointsExecuted])
	out.layer["serve.rejected"] = float64(c[serve.MetricRejected])
	var stages float64
	for _, name := range []string{serve.MetricStageDecodeUS, serve.MetricStageAdmitWaitUS,
		serve.MetricStageCacheLookupUS, serve.MetricStageFlightWaitUS} {
		stages += float64(delta.Histograms[name].Sum)
	}
	return stages
}

// httpLayers records the client, server-handler and transport medians.
func httpLayers(out *legOut, clientUS, handlerUS, transportUS []float64) {
	out.layer["http.client_us_p50"] = medianOf(clientUS)
	out.layer["serve.handler_us_p50"] = medianOf(handlerUS)
	out.layer["http.transport_us_p50"] = medianOf(transportUS)
}

// runtimeWatch follows the Go runtime over the primary leg's warm-up and
// slices, which alternate with the other legs' slices: it reads the
// counters around each slice and adds up only what happened inside.
type runtimeWatch struct {
	s0     [3]float64 // allocated bytes, GC CPU and process CPU when the open slice began
	allocs float64
	gcCPU  float64
	cpu    float64
	points int
}

var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	// Only GC cycles advance the runtime's CPU classes. The GC class is
	// still exact, since all GC work happens in cycles; total CPU comes
	// from getrusage instead.
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// counts reads allocated bytes, GC CPU seconds and process CPU seconds.
func counts() [3]float64 {
	s := readRuntime()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return [3]float64{float64(s[1].Value.Uint64()), s[2].Value.Float64(), cpu.Seconds()}
}

func (w *runtimeWatch) begin() { w.s0 = counts() }

// end closes the slice, which completed points units of work.
func (w *runtimeWatch) end(points int) {
	s := counts()
	w.allocs += s[0] - w.s0[0]
	w.gcCPU += s[1] - w.s0[1]
	w.cpu += s[2] - w.s0[2]
	w.points += points
}

// liveHeap runs two GC cycles and returns the heap they leave live. The
// first cycle moves sync.Pool contents to the victim cache and the
// second frees them, so pooled scratch is not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readRuntime()[0].Value.Uint64()
}

func liveHeapMB() float64 { return float64(liveHeap()) / (1 << 20) }

// report records the allocation and GC figures.
func (w *runtimeWatch) report(out *legOut) {
	if w.points > 0 {
		out.layer["runtime.alloc_bytes_per_point"] = w.allocs / float64(w.points)
	}
	if w.cpu > 0 {
		out.layer["runtime.gc_cpu_frac"] = w.gcCPU / w.cpu
	}
}

// legOut is what one leg measured.
type legOut struct {
	e2e       map[string]float64
	layer     map[string]float64
	report    map[string]any
	attempted int
	failed    int
	overhead  float64  // traced run: traced / untraced headline − 1
	reconcile float64  // traced run: summed layer self time / wall time
	invalid   []string // reasons the measurement cannot be trusted
}

func newLegOut() *legOut {
	return &legOut{e2e: map[string]float64{}, layer: map[string]float64{}, report: map[string]any{}}
}
