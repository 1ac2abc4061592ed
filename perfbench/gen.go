package main

// gen.go — the seeded input generators. Every request the benchmark
// sends and every grid it sweeps comes from here, as a pure function of
// the workload seed: the program under test only ever sees these inputs.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// The configuration axes the generators draw from.
var (
	gridNPEs   = []int{1, 8, 32}
	gridPages  = []int{16, 64}
	routedNPEs = []int{1, 2, 4, 8, 16, 32, 64}
	pageSizes  = []int{16, 32, 64, 128}
	cacheSizes = []int{0, 64, 128, 256, 1024}
	policies   = []cache.Policy{cache.LRU, cache.FIFO, cache.Clock}
	layouts    = []partition.Kind{partition.KindModulo, partition.KindBlock}
)

// gridPoints is the grid_wide input: every built-in kernel at its
// default N, in table order, crossed with gridNPEs, gridPages,
// cacheSizes, policies and layouts. It is the same for every seed: the
// sweep planner's load balance follows the group order (seeded kernel
// orders swept in 1.16 to 1.54 s on two cores), so a seeded order would
// measure the seed, not the engine. The seed picks the points checked
// against sim.Run instead (see newGridLeg). The NPE and page-size axes
// are thinned so a sweep takes about 1.3 s on two cores: a run
// measures many sweeps and reports their median.
func gridPoints() []sweep.Point {
	return sweep.Grid{
		Kernels:    loops.All(),
		NPEs:       gridNPEs,
		PageSizes:  gridPages,
		CacheElems: cacheSizes,
		Layouts:    layouts,
		Policies:   policies,
	}.Points()
}

// group is one capture group: a kernel at one clamped problem size.
type group struct {
	k *loops.Kernel
	n int
}

// groupsOf spreads each kernel over up to perKernel distinct clamped
// problem sizes: its default N times j/denom for j = perKernel down to 1.
func groupsOf(kernels []*loops.Kernel, perKernel, denom int) []group {
	var gs []group
	for _, k := range kernels {
		seen := map[int]bool{}
		for j := perKernel; j >= 1; j-- {
			n := k.ClampN(k.DefaultN * j / denom)
			if !seen[n] {
				seen[n] = true
				gs = append(gs, group{k, n})
			}
		}
	}
	return gs
}

// classifyReq draws one classify request in group g. The request is
// already canonical (policy is LRU whenever the cache is off), so two
// requests are the same canonical point exactly when their bodies match.
func classifyReq(r *rand.Rand, g group) serve.ClassifyRequest {
	c := cacheSizes[r.Intn(len(cacheSizes))]
	p := policies[r.Intn(len(policies))]
	if c == 0 {
		p = cache.LRU
	}
	return serve.ClassifyRequest{
		Kernel:     g.k.Key,
		N:          g.n,
		NPE:        1 + r.Intn(64),
		PageSize:   pageSizes[r.Intn(len(pageSizes))],
		CacheElems: &c,
		Policy:     p.String(),
		Layout:     layouts[r.Intn(len(layouts))].String(),
	}
}

// openGen draws classify_open requests: a Zipf-distributed kernel (rank
// fixed by kernel order, so the seed never changes which kernels are
// hot), one of its problem sizes, and a uniform configuration. No body
// is ever returned twice.
type openGen struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	groups [][]group // per kernel, in rank order
	seen   map[string]bool
}

// openGroupsPerKernel spreads each kernel over two problem sizes, a
// quarter and an eighth of its default, so the 26 built-ins plus the
// compiled kernels fit in the 64-entry stream cache and the cubic and
// quadratic kernels cost no more per request than the linear ones: the
// latency tail is the serving path's, not one kernel's.
const openGroupsPerKernel = 2

func newOpenGen(seed int64, kernels []*loops.Kernel) *openGen {
	r := rand.New(rand.NewSource(seed))
	g := &openGen{
		r:    r,
		zipf: rand.NewZipf(r, 1.1, 1, uint64(len(kernels)-1)),
		seen: map[string]bool{},
	}
	for _, k := range kernels {
		g.groups = append(g.groups, groupsOf([]*loops.Kernel{k}, openGroupsPerKernel, 4*openGroupsPerKernel))
	}
	return g
}

// allGroups lists every capture group the generator can draw from.
func (g *openGen) allGroups() []group {
	var gs []group
	for _, kg := range g.groups {
		gs = append(gs, kg...)
	}
	return gs
}

// take marks body as used and reports whether it was new.
func (g *openGen) take(body []byte) bool {
	if g.seen[string(body)] {
		return false
	}
	g.seen[string(body)] = true
	return true
}

// firstOf draws a fresh request in group gr at one page size, on one PE
// or, when framed, on several PEs with a cache: the warm-restart probes.
// One of each per group and page size builds every replay memo a later
// request of the group can need (the single-PE aggregate path and the
// per-event path).
func (g *openGen) firstOf(gr group, pageSize int, framed bool) []byte {
	for {
		req := classifyReq(g.r, gr)
		req.PageSize = pageSize
		if !framed {
			req.NPE = 1
		} else if req.NPE == 1 || *req.CacheElems == 0 {
			continue
		}
		if b := mustJSON(req); g.take(b) {
			return b
		}
	}
}

// next draws the next fresh request.
func (g *openGen) next() []byte {
	for {
		kg := g.groups[g.zipf.Uint64()]
		if b := mustJSON(classifyReq(g.r, kg[g.r.Intn(len(kg))])); g.take(b) {
			return b
		}
	}
}

// send is one scheduled open-loop request.
type send struct {
	At   time.Duration // offset from the start of the phase
	Body []byte
}

// schedule draws a Poisson arrival process at rate per second lasting
// dur, each arrival carrying a fresh request.
func (g *openGen) schedule(rate float64, dur time.Duration) []send {
	var out []send
	at := 0.0
	for {
		at += g.r.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, send{At: d, Body: g.next()})
	}
}

// routedGroupsPerKernel spreads each kernel over eight problem sizes, up
// to half its default: a working set well beyond two shards' 64-entry
// stream caches.
const routedGroupsPerKernel = 8

// hotSetSize is the number of distinct hot classify points.
const hotSetSize = 16

// routedReq is one sweep_routed request.
type routedReq struct {
	Sweep  bool
	Body   []byte
	Points int // points the response carries
}

// routedGen draws sweep_routed traffic: per client, a deterministic
// sequence mixing small sweeps over a large working set of capture
// groups with classify requests from a small hot set.
type routedGen struct {
	groups []group
	hot    [][]byte
}

func newRoutedGen(seed int64, kernels []*loops.Kernel) *routedGen {
	r := rand.New(rand.NewSource(seed))
	g := &routedGen{groups: groupsOf(kernels, routedGroupsPerKernel, 2*routedGroupsPerKernel)}
	seen := map[string]bool{}
	// Hot point i is on kernel i in table order, so the captures that
	// warm the hot set in set-up cost the same for every seed; the seed
	// draws the configurations.
	for len(g.hot) < hotSetSize {
		k := kernels[len(g.hot)%len(kernels)]
		gr := group{k, k.DefaultN}
		b := mustJSON(classifyReq(r, gr))
		if !seen[string(b)] {
			seen[string(b)] = true
			g.hot = append(g.hot, b)
		}
	}
	return g
}

// client returns client i's request source.
func (g *routedGen) client(seed int64, i int) func() routedReq {
	r := rand.New(rand.NewSource(seed*1000003 + int64(i) + 1))
	return func() routedReq {
		if r.Intn(2) == 0 {
			return routedReq{Body: g.hot[r.Intn(len(g.hot))], Points: 1}
		}
		gr := g.groups[r.Intn(len(g.groups))]
		req := serve.SweepRequest{
			Kernels:    []string{gr.k.Key},
			N:          gr.n,
			NPEs:       pickInts(r, routedNPEs, 2),
			PageSizes:  pickInts(r, pageSizes, 2),
			CacheElems: pickInts(r, cacheSizes[1:], 2),
			Policies:   []string{policies[r.Intn(len(policies))].String()},
			Layouts:    []string{layouts[r.Intn(len(layouts))].String()},
		}
		return routedReq{Sweep: true, Body: mustJSON(req), Points: 8}
	}
}

// pickInts draws k distinct values of xs, in xs order.
func pickInts(r *rand.Rand, xs []int, k int) []int {
	idx := r.Perm(len(xs))[:k]
	out := make([]int, 0, k)
	for i, x := range xs {
		for _, j := range idx {
			if i == j {
				out = append(out, x)
			}
		}
	}
	return out
}

// ladder is the fixed set of offered rates the classify_open limit
// search chooses from: geometric steps of 12% from 200 to ~20000 req/s.
func ladder() []float64 {
	var rs []float64
	for r := 200.0; r < 20000; r *= 1.12 {
		rs = append(rs, math.Round(r))
	}
	return rs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err))
	}
	return b
}
