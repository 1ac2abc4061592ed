package main

// grid.go — the grid_wide leg: offline cold sweeps of a wide grid through
// sweep.RunOpts, and, when traced, the same groups driven one at a time
// through refstream.Capture and Replayer.RunBatch to price each layer.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/refstream"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// gridCheckSamples is how many sweep results are compared with sim.Run.
const gridCheckSamples = 24

type gridLeg struct {
	pts    []sweep.Point
	sample []int // indices of pts checked against sim.Run
	last   []*sim.Result
	walls  []float64 // seconds per measured sweep

	// Measured time the grid has been given, has spent, and its last
	// sweep's wall time.
	allowed, spent, lastWall time.Duration
}

func newGridLeg(seed int64) *gridLeg {
	g := &gridLeg{pts: gridPoints()}
	r := rand.New(rand.NewSource(seed + 7))
	g.sample = r.Perm(len(g.pts))[:gridCheckSamples]
	return g
}

func (g *gridLeg) name() string { return "grid_wide" }

// setup has nothing to start: every sweep builds its state afresh.
func (g *gridLeg) setup(context.Context, bool) error {
	g.walls, g.last = nil, nil
	g.allowed, g.spent, g.lastWall = 0, 0, 0
	return nil
}

func (g *gridLeg) close() {}

// warm has nothing to do: every sweep is cold by design.
func (g *gridLeg) warm(context.Context, time.Duration) error { return nil }

// step sweeps the grid while the sweeps fit the time the grid has been
// given so far, counting this slice's d: it starts another sweep only
// if that sweep, taking as long as the last one, would end closer to
// the allowance than stopping now. A slow host then skips slices rather
// than stretching the run; the first slice sweeps at least once.
func (g *gridLeg) step(ctx context.Context, d time.Duration) (int, error) {
	g.allowed += d
	n := 0
	for len(g.walls) == 0 || g.spent+g.lastWall/2 < g.allowed {
		g.last = nil
		t := time.Now()
		res, err := sweep.RunOpts(ctx, g.pts, sweep.Options{Workers: runtime.NumCPU()})
		if err != nil {
			return 0, fmt.Errorf("grid sweep: %w", err)
		}
		g.lastWall = time.Since(t)
		g.spent += g.lastWall
		g.walls = append(g.walls, g.lastWall.Seconds())
		g.last = res
		n++
	}
	return n * len(g.pts), nil
}

func (g *gridLeg) finish(_ context.Context, traced bool, budget time.Duration) (*legOut, error) {
	out := newLegOut()
	out.attempted = len(g.walls) * len(g.pts)
	out.e2e["grid_points_per_s"] = float64(len(g.pts)) / medianOf(g.walls)
	out.report["grid"] = map[string]any{"points": len(g.pts), "sweeps": len(g.walls), "sweep_s": g.walls}
	if traced {
		if err := g.layers(out, budget); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check compares a seeded sample of the last sweep's results with
// sim.Run, bit for bit.
func (g *gridLeg) check(context.Context) (int, error) {
	for _, i := range g.sample {
		p := g.pts[i]
		if err := checkGridResult(p.Kernel, p.Kernel.ClampN(p.N), p.Config, g.last[i]); err != nil {
			return len(g.sample), err
		}
	}
	return len(g.sample), nil
}

// gridGroup is one capture group of the grid with its configurations.
type gridGroup struct {
	pt   sweep.Point // first point: kernel and N
	cfgs []sim.Config
}

func (g *gridLeg) groups() []gridGroup {
	var gs []gridGroup
	for _, p := range g.pts {
		if len(gs) == 0 || gs[len(gs)-1].pt.Kernel != p.Kernel {
			gs = append(gs, gridGroup{pt: p})
		}
		last := &gs[len(gs)-1]
		last.cfgs = append(last.cfgs, p.Config)
	}
	return gs
}

// cacheClass buckets a configuration by the replay path its cache takes.
func cacheClass(c sim.Config) string {
	switch {
	case c.CacheElems == 0:
		return "nocache"
	case c.Policy == cache.LRU:
		return "lru"
	default:
		return "fifo_clock"
	}
}

// layers prices capture, memo build and batch replay per group,
// serially, in three passes over the groups that fit a third of budget.
// The first pass runs capture plus one batch pass per group untimed per
// call; the second repeats it with each call timed, which gives the
// tracing overhead (second wall over first) and the reconciliation of
// the summed spans against the second pass's wall time; the third
// replays each traced stream again, whole and split by cache class, to
// separate the memo build (first minus second batch pass on a fresh
// stream, reported per group) from steady-state replay.
func (g *gridLeg) layers(out *legOut, budget time.Duration) error {
	gs := g.groups()
	n := 0
	t0 := time.Now()
	for ; n < len(gs) && (n == 0 || time.Since(t0) < budget/3); n++ {
		k := gs[n].pt.Kernel
		st, err := refstream.Capture(k, k.ClampN(gs[n].pt.N))
		if err == nil {
			_, err = refstream.NewReplayer().RunBatch(st, gs[n].cfgs)
		}
		if err != nil {
			return fmt.Errorf("grid group %s: %w", k.Key, err)
		}
	}
	untraced := time.Since(t0)

	type tracedGroup struct {
		st    *refstream.Stream
		rp    *refstream.Replayer
		first time.Duration
	}
	tg := make([]tracedGroup, n)
	var capture, batch time.Duration
	t1 := time.Now()
	for i := range tg {
		k := gs[i].pt.Kernel
		tg[i].rp = refstream.NewReplayer()
		ts := time.Now()
		st, err := refstream.Capture(k, k.ClampN(gs[i].pt.N))
		capture += time.Since(ts)
		if err != nil {
			return fmt.Errorf("grid group %s: %w", k.Key, err)
		}
		ts = time.Now()
		_, err = tg[i].rp.RunBatch(st, gs[i].cfgs)
		tg[i].first = time.Since(ts)
		batch += tg[i].first
		if err != nil {
			return fmt.Errorf("grid group %s: %w", k.Key, err)
		}
		tg[i].st = st
	}
	traced := time.Since(t1)

	var capEvents float64
	var memo time.Duration
	classNS, classEvCfg := map[string]float64{}, map[string]float64{}
	for i, t := range tg {
		capEvents += float64(t.st.Events())
		ts := time.Now()
		if _, err := t.rp.RunBatch(t.st, gs[i].cfgs); err != nil {
			return fmt.Errorf("grid group %s: %w", t.st.Kernel.Key, err)
		}
		memo += t.first - time.Since(ts)
		byClass := map[string][]sim.Config{}
		for _, c := range gs[i].cfgs {
			byClass[cacheClass(c)] = append(byClass[cacheClass(c)], c)
		}
		for cl, cfgs := range byClass {
			ts := time.Now()
			if _, err := t.rp.RunBatch(t.st, cfgs); err != nil {
				return fmt.Errorf("grid group %s: %w", t.st.Kernel.Key, err)
			}
			classNS[cl] += float64(time.Since(ts).Nanoseconds())
			classEvCfg[cl] += float64(t.st.Events()) * float64(len(cfgs))
		}
	}
	out.layer["refstream.capture_ns_per_event"] = float64(capture.Nanoseconds()) / capEvents
	out.layer["refstream.memo_build_ms"] = float64(memo.Nanoseconds()) / 1e6 / float64(n)
	for _, cl := range []string{"nocache", "lru", "fifo_clock"} {
		out.layer["refstream.batch_ns_per_event_config."+cl] = classNS[cl] / classEvCfg[cl]
	}
	out.overhead = traced.Seconds()/untraced.Seconds() - 1
	out.reconcile = (capture + batch).Seconds() / traced.Seconds()
	out.report["grid_layers"] = map[string]any{"groups": n, "of": len(gs)}
	return nil
}
