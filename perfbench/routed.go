package main

// routed.go — the sweep_routed leg: an in-process cluster.Router over two
// in-process shards, driven by a closed loop of one client per CPU mixing
// small sweeps over a large working set with hot repeated classifies.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// routedShards is the shard count behind the router.
	routedShards = 2
	// routedCheckEvery keeps every k-th answered request of a client for
	// the checks.
	routedCheckEvery = 256
)

type routedLeg struct {
	seed    int64
	gen     *routedGen
	clients int

	// Live cluster, rebuilt by every setup.
	shardRegs []*obs.Registry
	shards    []*serve.Server
	shardLns  []*listener
	routerReg *obs.Registry
	router    *cluster.Router
	routerLn  *listener
	client    *http.Client
	base      string
	routerSp  *spanLog
	shardSp   *spanLog
	kept      []routedReq
	keptBody  [][]byte

	// Accumulated over the measured slices.
	sweepMS, hotMS []float64
	clientUS       []float64
	sweepPoints    int
	sweepWall      time.Duration
	perSlice       []float64 // sweep points per second of each slice
	slices         int
	attempted      int
	failed         int
}

func newRoutedLeg(seed int64) *routedLeg {
	return &routedLeg{seed: seed, gen: newRoutedGen(seed, loops.All()), clients: runtime.NumCPU()}
}

func (l *routedLeg) name() string { return "sweep_routed" }

// setup starts the shards and the router on loopback ports and warms the
// hot set, so the measured phase starts with the hot points cached.
func (l *routedLeg) setup(ctx context.Context, traced bool) error {
	l.routerSp, l.shardSp = nil, nil
	l.kept, l.keptBody = nil, nil
	l.sweepMS, l.hotMS, l.clientUS, l.perSlice = nil, nil, nil, nil
	l.sweepPoints, l.slices, l.attempted, l.failed = 0, 0, 0, 0
	l.sweepWall = 0
	if traced {
		l.routerSp, l.shardSp = newSpanLog(), newSpanLog()
	}
	l.shardRegs, l.shards, l.shardLns = nil, nil, nil
	for i := 0; i < routedShards; i++ {
		reg := obs.NewRegistry()
		srv := serve.New(serve.Options{Metrics: reg, AccessLog: io.Discard})
		ln, err := listen(l.shardSp.wrap(srv.Handler()))
		if err != nil {
			srv.Close()
			return err
		}
		l.shardRegs = append(l.shardRegs, reg)
		l.shards = append(l.shards, srv)
		l.shardLns = append(l.shardLns, ln)
	}
	l.routerReg = obs.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards: routedShards,
		AddrOf: func(id int) string { return l.shardLns[id].addr },
		PIDOf:  func(int) int { return os.Getpid() },
		Local:  serve.Options{Metrics: l.routerReg, AccessLog: io.Discard},
		Seed:   l.seed,
	})
	if err != nil {
		return fmt.Errorf("starting the router: %w", err)
	}
	l.router = rt
	if l.routerLn, err = listen(l.routerSp.wrap(rt.Handler())); err != nil {
		return err
	}
	l.base = "http://" + l.routerLn.addr
	l.client = newClient()
	for _, b := range l.gen.hot {
		if _, err := postOK(ctx, l.client, l.base+"/v1/classify", b); err != nil {
			return fmt.Errorf("warming the hot set: %w", err)
		}
	}
	return nil
}

func (l *routedLeg) close() {
	if l.routerLn != nil {
		l.routerLn.stop()
		l.router.Close()
		l.routerLn = nil
	}
	for i, ln := range l.shardLns {
		ln.stop()
		l.shards[i].Close()
	}
	l.shardLns, l.shards = nil, nil
	if l.client != nil {
		l.client.CloseIdleConnections()
	}
}

// closedRun is the outcome of one closed-loop phase.
type closedRun struct {
	sweepMS, hotMS []float64
	clientUS       []float64
	ids            []string
	sweepPoints    int
	attempted      int
	failed         int
	wall           time.Duration
}

// runClosed drives l.clients clients, each sending its next request when
// the previous one is answered, until dur has passed.
func (l *routedLeg) runClosed(ctx context.Context, dur time.Duration, ids *reqIDs, phase int) *closedRun {
	runs := make([]closedRun, l.clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := l.gen.client(l.seed+int64(phase)*7919, c)
			r := &runs[c]
			for j := 0; time.Since(start) < dur; j++ {
				req := next()
				path := "/v1/classify"
				if req.Sweep {
					path = "/v1/sweep"
				}
				id := ""
				if ids != nil {
					id = ids.next()
				}
				t := time.Now()
				code, body, err := post(ctx, l.client, l.base+path, id, req.Body)
				d := time.Since(t)
				r.attempted++
				if err != nil || code != http.StatusOK {
					r.failed++
					continue
				}
				ms := float64(d.Nanoseconds()) / 1e6
				if req.Sweep {
					r.sweepMS = append(r.sweepMS, ms)
					r.sweepPoints += req.Points
				} else {
					r.hotMS = append(r.hotMS, ms)
				}
				r.clientUS = append(r.clientUS, ms*1e3)
				r.ids = append(r.ids, id)
				if j%routedCheckEvery == 0 {
					mu.Lock()
					l.kept = append(l.kept, req)
					l.keptBody = append(l.keptBody, body)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	all := &closedRun{wall: time.Since(start)}
	for _, r := range runs {
		all.sweepMS = append(all.sweepMS, r.sweepMS...)
		all.hotMS = append(all.hotMS, r.hotMS...)
		all.clientUS = append(all.clientUS, r.clientUS...)
		all.ids = append(all.ids, r.ids...)
		all.sweepPoints += r.sweepPoints
		all.attempted += r.attempted
		all.failed += r.failed
	}
	return all
}

func (l *routedLeg) snap() *obs.Snapshot {
	var ss []*obs.Snapshot
	for _, reg := range l.shardRegs {
		ss = append(ss, reg.Snapshot())
	}
	return mergeSnaps(ss...)
}

// warm runs an unmeasured phase, so the shards' stream caches are full
// and churning when timing starts.
func (l *routedLeg) warm(ctx context.Context, d time.Duration) error {
	r := l.runClosed(ctx, d, nil, 0)
	l.attempted += r.attempted
	l.failed += r.failed
	return nil
}

// step runs one slice of the closed loop. Each slice draws fresh
// per-client request sequences.
func (l *routedLeg) step(ctx context.Context, d time.Duration) (int, error) {
	l.slices++
	r := l.runClosed(ctx, d, nil, 1+l.slices)
	l.client.CloseIdleConnections()
	l.attempted += r.attempted
	l.failed += r.failed
	l.sweepMS = append(l.sweepMS, r.sweepMS...)
	l.hotMS = append(l.hotMS, r.hotMS...)
	l.clientUS = append(l.clientUS, r.clientUS...)
	l.sweepPoints += r.sweepPoints
	l.sweepWall += r.wall
	l.perSlice = append(l.perSlice, float64(r.sweepPoints)/r.wall.Seconds())
	return r.attempted, nil
}

func (l *routedLeg) finish(ctx context.Context, traced bool, budget time.Duration) (*legOut, error) {
	out := newLegOut()
	out.attempted, out.failed = l.attempted, l.failed
	sw, err := summarize(l.sweepMS)
	if err != nil {
		return nil, fmt.Errorf("sweep latency: %w", err)
	}
	hot, err := summarize(l.hotMS)
	if err != nil {
		return nil, fmt.Errorf("hot latency: %w", err)
	}
	// Throughput is total over total: on a host whose speed swings from
	// slice to slice, the mean of eight slices moved less from run to run
	// than their median did.
	out.e2e["sweep_points_per_s"] = float64(l.sweepPoints) / l.sweepWall.Seconds()
	out.e2e["sweep_p50_ms"] = sw.P50
	out.layer["sweep_p99_ms"] = sw.Tail
	out.e2e["hot_p50_ms"] = hot.P50
	out.layer["hot_p99_ms"] = hot.Tail
	out.report["routed"] = map[string]any{"clients": l.clients, "sweep_ms": sw, "hot_ms": hot,
		"sweep_points": l.sweepPoints, "sweep_points_per_s": l.perSlice}
	if traced {
		return out, l.traced(ctx, out, budget)
	}
	return out, nil
}

// traced repeats the closed loop with request IDs and the router and
// shard handler wrappers on, and derives the per-layer figures from it.
func (l *routedLeg) traced(ctx context.Context, out *legOut, dur time.Duration) error {
	before := l.snap()
	r := l.runClosed(ctx, dur, &reqIDs{}, 1)
	delta := snapDelta(before, l.snap())
	out.attempted += r.attempted
	out.failed += r.failed
	var routerUS, shardUS, hopUS, transportUS []float64
	var sumClient, sumRouter float64
	for i, id := range r.ids {
		rd, ok1 := l.routerSp.get(id)
		sd, ok2 := l.shardSp.get(id)
		if !ok1 || !ok2 {
			continue
		}
		ru, su := float64(rd.Nanoseconds())/1e3, float64(sd.Nanoseconds())/1e3
		routerUS = append(routerUS, ru)
		shardUS = append(shardUS, su)
		hopUS = append(hopUS, ru-su)
		transportUS = append(transportUS, r.clientUS[i]-ru)
		sumClient += r.clientUS[i]
		sumRouter += ru
	}
	httpLayers(out, r.clientUS, shardUS, transportUS)
	out.layer["cluster.router_us_p50"] = medianOf(routerUS)
	out.layer["cluster.hop_us_p50"] = medianOf(hopUS)
	var sumShard float64
	for _, s := range shardUS {
		sumShard += s
	}
	stages := serveLayers(out, delta, l.snap())
	// Client time = transport + router hop + shard handler; the shard
	// handler is tiled by the serve stages.
	out.reconcile = ((sumClient - sumRouter) + (sumRouter - sumShard) + stages) / sumClient
	out.overhead = medianOf(r.clientUS)/medianOf(l.clientUS) - 1
	c := l.routerReg.Snapshot().Counters
	out.layer["cluster.forwards"] = float64(c[cluster.MetricForwards])
	out.layer["cluster.retries"] = float64(c[cluster.MetricFailovers])
	return nil
}

// check replays the kept requests against a fresh single-node server:
// routed bodies must be byte-identical, and every point must match
// sim.Run.
func (l *routedLeg) check(ctx context.Context) (int, error) {
	ref := serve.New(serve.Options{Metrics: obs.NewRegistry(), AccessLog: io.Discard})
	defer ref.Close()
	ln, err := listen(ref.Handler())
	if err != nil {
		return 0, err
	}
	defer ln.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	for i, req := range l.kept {
		path := "/v1/classify"
		if req.Sweep {
			path = "/v1/sweep"
		}
		want, err := postOK(ctx, c, "http://"+ln.addr+path, req.Body)
		if err != nil {
			return len(l.kept), err
		}
		if !bytes.Equal(want, l.keptBody[i]) {
			return len(l.kept), fmt.Errorf("routed %s %s: %w", path, req.Body, errWrongBody)
		}
		points := [][]byte{want}
		if req.Sweep {
			var sr serve.SweepResult
			if err := json.Unmarshal(want, &sr); err != nil {
				return len(l.kept), err
			}
			points = points[:0]
			for _, p := range sr.Points {
				points = append(points, p)
			}
		}
		for _, p := range points {
			if err := checkPointBody(p, loops.ByKey); err != nil {
				return len(l.kept), err
			}
		}
	}
	return len(l.kept), nil
}
