package main

// classify.go — the classify_open leg: a single-node daemon, warm-started
// from a populated capture directory, under Poisson open-loop traffic in
// which every request is a distinct canonical point.

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
	"repro/internal/refstream/store"
	"repro/internal/serve"
)

const (
	// openRate is the fixed offered rate of the latency phase, req/s.
	openRate = 500.0
	// sloLimitMS is the p99 latency limit of the rate-limit search.
	sloLimitMS = 25.0
	// lateBoundMS bounds how late the generator may send (p99) before
	// an open-loop phase is invalid: a generator later than the latency
	// limit could not tell a slow server from its own stalls.
	lateBoundMS = sloLimitMS
	// rungRequests is the request count of one limit-search rung.
	rungRequests = 2000
	// sloStartRate is where the limit search starts on the ladder.
	sloStartRate = 2000.0
	// maxOutstanding caps in-flight open-loop requests; a send beyond it
	// counts as failed (the backlog is growing).
	maxOutstanding = 1000
	// openMaxInflight is the daemon's admission bound (the -queue flag):
	// deep enough that the open loop meets queueing, not 429s.
	openMaxInflight = 256
	// fuzzKernels is how many seeded generated programs are compiled.
	fuzzKernels = 3
	// openChecksPerPhase is how many answered bodies of each open-loop
	// phase are kept for the checks.
	openChecksPerPhase = 8
)

// smootherPath is the conventional loop nest compiled with conversion,
// relative to the repository root.
const smootherPath = "testdata/smoother.loop"

type classifyLeg struct {
	dir       string
	sources   []kernelreg.CompileRequest
	kernels   map[string]*loops.Kernel // built-ins and compiled, by key
	gen       *openGen
	firsts    [][]byte // warm-restart probes per capture group and page size, answered in setup
	checkRand *rand.Rand

	// Live daemon, rebuilt by every setup.
	reg       *obs.Registry
	srv       *serve.Server
	ln        *listener
	url       string
	client    *http.Client
	spans     *spanLog
	tstore    *timedStore
	openMS    float64
	compileMS []float64
	sample    [][]byte

	// Accumulated over the measured slices.
	lat, late []float64 // ms from schedule; ms the generator sent late
	clientUS  []float64 // µs from the actual send, answered requests only
	attempted int
	failed    int
}

// compileSources returns the compile requests of the workload's user
// kernels: seeded generated programs plus the smoother (with conversion),
// read from the repository rooted at root.
func compileSources(seed int64, root string) ([]kernelreg.CompileRequest, error) {
	r := rand.New(rand.NewSource(seed + 11))
	var reqs []kernelreg.CompileRequest
	for i := 0; i < fuzzKernels; i++ {
		b := make([]byte, 24)
		r.Read(b)
		reqs = append(reqs, kernelreg.CompileRequest{Source: kernelreg.Canonicalize(ir.FuzzAffineProgram(b))})
	}
	src, err := os.ReadFile(filepath.Join(root, smootherPath))
	if err != nil {
		return nil, fmt.Errorf("reading the smoother source: %w", err)
	}
	return append(reqs, kernelreg.CompileRequest{Source: string(src), Convert: true}), nil
}

// compileAll compiles reqs into reg and returns the kernels.
func compileAll(reg *kernelreg.Registry, reqs []kernelreg.CompileRequest) ([]*loops.Kernel, error) {
	var ks []*loops.Kernel
	for _, req := range reqs {
		resp, err := reg.Compile(req)
		if err != nil {
			return nil, fmt.Errorf("compiling a user kernel: %w", err)
		}
		k, err := reg.Resolve(resp.Kernel)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// openKernels is the classify_open kernel list in Zipf rank order: the
// built-ins in table order, then the compiled kernels.
func openKernels(seed int64, root string) ([]kernelreg.CompileRequest, []*loops.Kernel, error) {
	srcs, err := compileSources(seed, root)
	if err != nil {
		return nil, nil, err
	}
	compiled, err := compileAll(kernelreg.New(kernelreg.Limits{}, nil), srcs)
	if err != nil {
		return nil, nil, err
	}
	return srcs, append(append([]*loops.Kernel(nil), loops.All()...), compiled...), nil
}

// newClassifyLeg draws the leg's inputs and populates the capture
// directory the warm restart opens (outside any timed region).
func newClassifyLeg(seed int64, work string) (*classifyLeg, error) {
	srcs, kernels, err := openKernels(seed, ".")
	if err != nil {
		return nil, err
	}
	c := &classifyLeg{
		dir:       filepath.Join(work, "captures"),
		sources:   srcs,
		kernels:   map[string]*loops.Kernel{},
		gen:       newOpenGen(seed, kernels),
		checkRand: rand.New(rand.NewSource(seed + 13)),
	}
	for _, k := range kernels {
		c.kernels[k.Key] = k
	}
	st, err := store.Open(c.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("opening the capture store: %w", err)
	}
	for _, g := range c.gen.allGroups() {
		s, err := refstream.Capture(g.k, g.n)
		if err != nil {
			return nil, fmt.Errorf("capturing %s n=%d: %w", g.k.Key, g.n, err)
		}
		st.Save(s)
		for _, ps := range pageSizes {
			c.firsts = append(c.firsts, c.gen.firstOf(g, ps, false), c.gen.firstOf(g, ps, true))
		}
	}
	return c, nil
}

func (c *classifyLeg) name() string { return "classify_open" }

func (c *classifyLeg) resolve(key string) (*loops.Kernel, error) {
	if k, ok := c.kernels[key]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("unknown kernel %q", key)
}

// setup is the warm restart: open the populated store, start the daemon,
// compile the user kernels and answer the first requests of every group
// at every page size (see openGen.firstOf).
func (c *classifyLeg) setup(ctx context.Context, traced bool) error {
	c.reg = obs.NewRegistry()
	kreg := kernelreg.New(kernelreg.Limits{}, c.reg)
	t := time.Now()
	st, err := store.Open(c.dir, c.reg)
	if err != nil {
		return fmt.Errorf("opening the capture store: %w", err)
	}
	c.openMS = float64(time.Since(t).Nanoseconds()) / 1e6
	st.SetResolver(kreg.Resolve)
	opts := serve.Options{
		MaxInflight:  openMaxInflight,
		Metrics:      c.reg,
		AccessLog:    io.Discard,
		CaptureStore: st,
		Registry:     kreg,
	}
	c.spans, c.tstore = nil, nil
	c.sample, c.lat, c.late, c.clientUS = nil, nil, nil, nil
	c.attempted, c.failed = 0, 0
	if traced {
		c.spans = newSpanLog()
		c.tstore = &timedStore{inner: st}
		opts.CaptureStore = c.tstore
	}
	c.srv = serve.New(opts)
	if c.ln, err = listen(c.spans.wrap(c.srv.Handler())); err != nil {
		c.srv.Close()
		return err
	}
	c.url = "http://" + c.ln.addr + "/v1/classify"
	c.client = newClient()
	c.compileMS = c.compileMS[:0]
	for _, req := range c.sources {
		t := time.Now()
		if _, err := kreg.Compile(req); err != nil {
			return fmt.Errorf("compiling a user kernel: %w", err)
		}
		c.compileMS = append(c.compileMS, float64(time.Since(t).Nanoseconds())/1e6)
	}
	for _, b := range c.firsts {
		if _, err := postOK(ctx, c.client, c.url, b); err != nil {
			return fmt.Errorf("warm-restart request: %w", err)
		}
	}
	return nil
}

func (c *classifyLeg) close() {
	if c.ln != nil {
		c.ln.stop()
		c.srv.Close()
		c.client.CloseIdleConnections()
		c.ln = nil
	}
}

// openRun is the outcome of one open-loop phase.
type openRun struct {
	lat      []float64 // ms from the scheduled send time
	late     []float64 // ms the generator sent after schedule
	clientUS []float64 // µs from the actual send to the last body byte
	ids      []string
	ok       []bool
	bodies   [][]byte
	failed   int
}

// runOpen sends sends on schedule, each on its own goroutine, and waits
// for every answer.
func (c *classifyLeg) runOpen(ctx context.Context, sends []send, ids *reqIDs) *openRun {
	n := len(sends)
	r := &openRun{lat: make([]float64, n), late: make([]float64, n), clientUS: make([]float64, n),
		ids: make([]string, n), ok: make([]bool, n), bodies: make([][]byte, n)}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i, s := range sends {
		due := start.Add(s.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late[i] = float64(time.Since(due).Nanoseconds()) / 1e6
		if inflight.Load() >= maxOutstanding {
			continue
		}
		if ids != nil {
			r.ids[i] = ids.next()
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			sent := time.Now()
			code, body, err := post(ctx, c.client, c.url, r.ids[i], s.Body)
			end := time.Now()
			r.lat[i] = float64(end.Sub(due).Nanoseconds()) / 1e6
			r.clientUS[i] = float64(end.Sub(sent).Nanoseconds()) / 1e3
			r.ok[i] = err == nil && code == http.StatusOK
			r.bodies[i] = body
		}()
	}
	wg.Wait()
	for i := range r.ok {
		if !r.ok[i] {
			r.failed++
			r.lat[i] = 1e9 // a failed request misses any latency limit
		}
	}
	return r
}

// keepSample stashes a few answered bodies for the correctness check.
func (c *classifyLeg) keepSample(r *openRun) {
	for j := 0; j < openChecksPerPhase; j++ {
		i := c.checkRand.Intn(len(r.ok))
		if r.ok[i] {
			c.sample = append(c.sample, r.bodies[i])
		}
	}
	r.bodies = nil
}

// warm runs an unmeasured phase at the fixed rate: replayer buffers grow
// and the heap reaches its working size before timing starts.
func (c *classifyLeg) warm(ctx context.Context, d time.Duration) error {
	r := c.runOpen(ctx, c.gen.schedule(openRate, d), nil)
	c.keepSample(r)
	c.attempted += len(r.ok)
	c.failed += r.failed
	return nil
}

// step runs one slice of the fixed-rate phase.
func (c *classifyLeg) step(ctx context.Context, d time.Duration) (int, error) {
	r := c.runOpen(ctx, c.gen.schedule(openRate, d), nil)
	c.client.CloseIdleConnections() // their buffers follow burst sizes, not the server
	c.keepSample(r)
	c.attempted += len(r.ok)
	c.failed += r.failed
	c.lat = append(c.lat, r.lat...)
	c.late = append(c.late, r.late...)
	c.clientUS = append(c.clientUS, okOnly(r.clientUS, r.ok)...)
	return len(r.ok), nil
}

func (c *classifyLeg) finish(ctx context.Context, traced bool, budget time.Duration) (*legOut, error) {
	out := newLegOut()
	out.attempted, out.failed = c.attempted, c.failed
	lat, err := summarize(c.lat)
	if err != nil {
		return nil, fmt.Errorf("classify latency: %w", err)
	}
	late, err := summarize(c.late)
	if err != nil {
		return nil, err
	}
	out.e2e["classify_p50_ms"] = lat.P50
	out.layer["classify_p99_ms"] = lat.Tail
	out.layer["loadgen.late_p99_ms"] = late.Tail
	out.report["classify"] = map[string]any{"rate": openRate, "latency_ms": lat, "late_ms": late}
	if late.Tail > lateBoundMS {
		out.invalid = append(out.invalid, fmt.Sprintf("classify_open: generator late p99 %.2f ms exceeds %.1f ms", late.Tail, lateBoundMS))
	}
	if !traced {
		return out, nil
	}
	// classify_slo_rps is reported with the per-layer metrics, so only a
	// traced run searches for it. Its requests carry no request ID, so
	// the spans record nothing for them.
	slo, rungs := c.sloSearch(ctx)
	out.layer["classify_slo_rps"] = slo
	out.report["classify_slo"] = map[string]any{"limit_ms": sloLimitMS, "rps": slo, "rungs": rungs}
	return out, c.traced(ctx, out, budget)
}

// rung is one step of the limit search.
type rung struct {
	Rate   float64 `json:"rate"`
	N      int     `json:"n"`
	P99MS  float64 `json:"p99_ms"`
	Failed int     `json:"failed"`
	Pass   bool    `json:"pass"`
}

// sloSearch walks the fixed rate ladder for the highest rate whose p99
// latency, timed from schedule, meets sloLimitMS with nothing refused or
// left behind by a growing backlog. It starts at sloStartRate, steps down
// until a rung passes, then up until two rungs in a row fail, so one
// rung spoiled by a stall of the host does not end the climb. The answer
// is interpolated between the highest passing rung and the failing rung
// above it, on the logarithm of their p99s, so it moves smoothly with
// the server instead of jumping a whole rung. Rung failures are the
// point of the search: rung requests count neither as attempted nor as
// failed, but their sampled bodies are still checked.
func (c *classifyLeg) sloSearch(ctx context.Context) (float64, []rung) {
	lad := ladder()
	try := func(i int) rung {
		rate := lad[i]
		r := c.runOpen(ctx, c.gen.schedule(rate, time.Duration(rungRequests/rate*float64(time.Second))), nil)
		c.keepSample(r)
		d, err := summarize(r.lat)
		rg := rung{Rate: rate, N: len(r.lat), P99MS: d.Tail, Failed: r.failed}
		rg.Pass = err == nil && r.failed == 0 && d.Tail <= sloLimitMS
		return rg
	}
	var rungs []rung
	i := 0
	for i < len(lad)-1 && lad[i] < sloStartRate {
		i++
	}
	for ; i >= 0; i-- {
		rungs = append(rungs, try(i))
		if rungs[len(rungs)-1].Pass {
			break
		}
	}
	if i < 0 {
		return 0, rungs
	}
	best, above := rungs[len(rungs)-1], rung{}
	for fails := 0; fails < 2 && i+1 < len(lad); {
		i++
		rg := try(i)
		rungs = append(rungs, rg)
		switch {
		case rg.Pass:
			best, above, fails = rg, rung{}, 0
		case fails == 0:
			above, fails = rg, 1
		default:
			fails++
		}
	}
	if above.Rate == 0 || above.Failed > 0 {
		return best.Rate, rungs
	}
	f := (math.Log(sloLimitMS) - math.Log(best.P99MS)) / (math.Log(above.P99MS) - math.Log(best.P99MS))
	return best.Rate + f*(above.Rate-best.Rate), rungs
}

// traced repeats the fixed-rate phase with request IDs and the handler
// and store wrappers on, and derives the per-layer figures from it.
func (c *classifyLeg) traced(ctx context.Context, out *legOut, dur time.Duration) error {
	before := c.reg.Snapshot()
	r := c.runOpen(ctx, c.gen.schedule(openRate, dur), &reqIDs{})
	delta := snapDelta(before, c.reg.Snapshot())
	c.keepSample(r)
	out.attempted += len(r.ok)
	out.failed += r.failed
	var handler, transport []float64
	var sumClient, sumHandler float64
	for i, id := range r.ids {
		h, ok := c.spans.get(id)
		if !r.ok[i] || !ok {
			continue
		}
		hu := float64(h.Nanoseconds()) / 1e3
		handler = append(handler, hu)
		transport = append(transport, r.clientUS[i]-hu)
		sumClient += r.clientUS[i]
		sumHandler += hu
	}
	httpLayers(out, okOnly(r.clientUS, r.ok), handler, transport)
	stages := serveLayers(out, delta, c.reg.Snapshot())
	out.reconcile = ((sumClient - sumHandler) + stages) / sumClient
	out.overhead = medianOf(okOnly(r.clientUS, r.ok))/medianOf(c.clientUS) - 1
	out.layer["store.open_ms"] = c.openMS
	out.layer["kernelreg.compile_ms_p50"] = medianOf(c.compileMS)
	out.layer["store.load_us_p50"] = medianOf(c.tstore.loads)
	snap := c.reg.Snapshot()
	out.layer["store.hits"] = float64(snap.Counters[store.MetricHits])
	out.layer["store.load_errors"] = float64(snap.Counters[store.MetricLoadErrors])
	return nil
}

// check compares the sampled bodies with sim.Run.
func (c *classifyLeg) check(context.Context) (int, error) {
	for _, b := range c.sample {
		if err := checkPointBody(b, c.resolve); err != nil {
			return len(c.sample), err
		}
	}
	return len(c.sample), nil
}

func okOnly(xs []float64, ok []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if ok[i] {
			out = append(out, x)
		}
	}
	return out
}
