package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/loops"
	"repro/internal/refstream"
	"repro/internal/serve"
)

// testKernels is the classify_open kernel list, compiled from the
// repository one directory up.
func testKernels(t *testing.T, seed int64) []*loops.Kernel {
	t.Helper()
	_, ks, err := openKernels(seed, "..")
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// openBytes renders everything the classify_open generator emits for a
// seed — setup probes, the fixed-rate schedule and a ladder's worth of
// rungs — as one byte string.
func openBytes(t *testing.T, seed int64) []byte {
	g := newOpenGen(seed, testKernels(t, seed))
	var buf bytes.Buffer
	for _, gr := range g.allGroups() {
		buf.Write(g.firstOf(gr, 32, true))
		buf.WriteByte('\n')
	}
	sends := g.schedule(openRate, 2*time.Second)
	for _, rate := range ladder()[:6] {
		sends = append(sends, g.schedule(rate, time.Second)...)
	}
	for _, s := range sends {
		_ = binary.Write(&buf, binary.LittleEndian, int64(s.At))
		buf.Write(s.Body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// routedBytes renders the first requests of two sweep_routed clients.
func routedBytes(seed int64) []byte {
	g := newRoutedGen(seed, loops.All())
	var buf bytes.Buffer
	for c := 0; c < 2; c++ {
		next := g.client(seed, c)
		for i := 0; i < 500; i++ {
			r := next()
			fmt.Fprintf(&buf, "%v %d %s\n", r.Sweep, r.Points, r.Body)
		}
	}
	return buf.Bytes()
}

// gridBytes renders the grid and the points checked against sim.Run.
func gridBytes(seed int64) []byte {
	var buf bytes.Buffer
	g := newGridLeg(seed)
	for _, p := range g.pts {
		fmt.Fprintf(&buf, "%s\n", p)
	}
	fmt.Fprintln(&buf, g.sample)
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, gen := range map[string]func(int64) []byte{
		"classify_open": func(s int64) []byte { return openBytes(t, s) },
		"sweep_routed":  routedBytes,
		"grid_wide":     gridBytes,
	} {
		a, b, c := gen(5), gen(5), gen(6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 5 gave two different input sets", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
	}
}

// canonicalKey applies the daemon's canonicalization independently of
// the generator: clamped N, and LRU whenever the cache is off.
func canonicalKey(t *testing.T, body []byte, kernels map[string]*loops.Kernel) string {
	var req serve.ClassifyRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("request %s: %v", body, err)
	}
	k, ok := kernels[req.Kernel]
	if !ok {
		t.Fatalf("request %s names an unknown kernel", body)
	}
	c := 256
	if req.CacheElems != nil {
		c = *req.CacheElems
	}
	pol := req.Policy
	if pol == "" || c == 0 {
		pol = "lru"
	}
	return fmt.Sprintf("%s/%d/%d/%d/%d/%s/%s", k.Key, k.ClampN(req.N), req.NPE, req.PageSize, c, pol, req.Layout)
}

func TestClassifyOpenHasNoDuplicatePoints(t *testing.T) {
	ks := testKernels(t, 3)
	byKey := map[string]*loops.Kernel{}
	for _, k := range ks {
		byKey[k.Key] = k
	}
	g := newOpenGen(3, ks)
	var bodies [][]byte
	for _, gr := range g.allGroups() {
		for _, ps := range pageSizes {
			bodies = append(bodies, g.firstOf(gr, ps, false), g.firstOf(gr, ps, true))
		}
	}
	// More requests than the longest run sends: the fixed-rate phase
	// plus a full limit search at the top rungs.
	for _, s := range g.schedule(openRate, 20*time.Second) {
		bodies = append(bodies, s.Body)
	}
	for _, rate := range ladder()[len(ladder())-8:] {
		for _, s := range g.schedule(rate, time.Duration(rungRequests/rate*float64(time.Second))) {
			bodies = append(bodies, s.Body)
		}
	}
	seen := map[string]bool{}
	for _, b := range bodies {
		key := canonicalKey(t, b, byKey)
		if seen[key] {
			t.Fatalf("canonical point %s drawn twice", key)
		}
		seen[key] = true
	}
	if len(seen) < 10000 {
		t.Fatalf("only %d points drawn", len(seen))
	}
}

func TestClassifyOpenGroupsFitStreamCache(t *testing.T) {
	g := newOpenGen(3, testKernels(t, 3))
	if n := len(g.allGroups()); n > refstream.DefaultCacheEntries {
		t.Fatalf("%d capture groups exceed the %d-entry stream cache", n, refstream.DefaultCacheEntries)
	}
}

func TestSweepRoutedWorkingSetExceedsShardCaches(t *testing.T) {
	g := newRoutedGen(1, loops.All())
	seen := map[group]bool{}
	for _, gr := range g.groups {
		if seen[gr] {
			t.Fatalf("group %s n=%d listed twice", gr.k.Key, gr.n)
		}
		seen[gr] = true
	}
	if capacity := routedShards * refstream.DefaultCacheEntries; len(g.groups) <= capacity {
		t.Fatalf("working set of %d groups fits the shards' %d stream-cache entries", len(g.groups), capacity)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	d, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d.P50 != 1000.5 || d.Tail != 1980 || d.TailPc != 99 {
		t.Fatalf("2000 samples: got %+v", d)
	}
	// 500 samples: the 99th percentile has only 5 beyond it, so the
	// tail falls back to the 11th-largest sample.
	d, err = summarize(xs[1500:])
	if err != nil {
		t.Fatal(err)
	}
	if d.Tail != 490 || d.TailPc != 98 {
		t.Fatalf("500 samples: got %+v", d)
	}
	if _, err := summarize(xs[:10]); err == nil {
		t.Fatal("10 samples gave a tail")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json in step with the
// metrics this program prints and the limits it enforces.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	why := map[string]string{}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		why[w.Name] = w.Why
	}
	if got := strings.Join(names, ","); got != "grid_wide,classify_open,sweep_routed" {
		t.Fatalf("workloads %s", got)
	}
	for wl, frag := range map[string]string{
		"classify_open": fmt.Sprintf("p99 limit %g ms", sloLimitMS),
		"sweep_routed":  fmt.Sprintf("reconcile within %g%%", 100*reconcileTolerance),
		"grid_wide":     fmt.Sprintf("%d points", len(gridPoints())),
	} {
		if !strings.Contains(why[wl], frag) {
			t.Errorf("%s why %q does not state %q", wl, why[wl], frag)
		}
	}
}
